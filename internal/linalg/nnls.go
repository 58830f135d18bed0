package linalg

// The constrained least-squares problems behind the UFCLS algorithm
// (Algorithm 3 of the paper): the linear mixture model
// y = M*alpha + noise, where the abundance vector alpha is estimated
// subject to non-negativity (NNLS) and additionally to the sum-to-one
// constraint (FCLS, after Heinz & Chang). FCLSSolver (gram.go) solves
// them; the dense Lawson-Hanson NNLS and FCLS in nnls_test.go are its
// reference. Both use the constants below.

// nnlsMaxOuter bounds Lawson-Hanson outer iterations; 3x the variable
// count is the customary safeguard.
func nnlsMaxOuter(n int) int { return 3 * (n + 10) }

// FCLSDelta controls how strongly the sum-to-one constraint is enforced
// in FCLS. Following Heinz & Chang it should dominate the signature
// magnitudes but not by so much that the augmented normal equations become
// numerically singular: one to two orders of magnitude above typical
// reflectance works across this repository's scenes.
const FCLSDelta = 25.0
