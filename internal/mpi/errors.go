package mpi

import (
	"errors"
	"fmt"
)

// Sentinel failure classes. Concrete errors (RankFailedError,
// CascadeError) match them under errors.Is, so callers triage failures
// without string inspection:
//
//	errors.Is(err, mpi.ErrRankFailed)  // a rank died (injected fault at a known vtime)
//	errors.Is(err, mpi.ErrCascade)     // a surviving rank aborted because another rank failed
var (
	// ErrRankFailed classifies the death of a single rank at a known
	// virtual time — the originating failure of a run.
	ErrRankFailed = errors.New("mpi: rank failed")
	// ErrCascade classifies the secondary aborts on surviving ranks after
	// some other rank failed. Run prefers reporting the origin; a cascade
	// surfaces only when no origin was recorded.
	ErrCascade = errors.New("mpi: run aborted because another rank failed")
)

// RankFailedError reports that one rank died at a virtual time — the
// payload of an injected crash (package fault). It matches ErrRankFailed
// under errors.Is.
type RankFailedError struct {
	// Rank is the processor that died.
	Rank int
	// VTime is the virtual time in seconds at which it died.
	VTime float64
}

// Error implements error.
func (e *RankFailedError) Error() string {
	return fmt.Sprintf("mpi: rank %d failed at virtual time %.6fs", e.Rank, e.VTime)
}

// Is matches the ErrRankFailed sentinel.
func (e *RankFailedError) Is(target error) bool { return target == ErrRankFailed }

// CascadeError reports that a surviving rank aborted because another rank
// failed first. It matches ErrCascade under errors.Is.
type CascadeError struct {
	// Rank is the survivor that observed the failure.
	Rank int
}

// Error implements error.
func (e *CascadeError) Error() string {
	return fmt.Sprintf("mpi: rank %d aborted because another rank failed", e.Rank)
}

// Is matches the ErrCascade sentinel.
func (e *CascadeError) Is(target error) bool { return target == ErrCascade }

// IsRetryable reports whether the error is a transient execution failure
// that a full re-run may survive: a rank death (injected fault) or the
// cascade it triggered. Cancellation, deadline expiry and malformed
// programs are permanent.
func IsRetryable(err error) bool {
	return errors.Is(err, ErrRankFailed) || errors.Is(err, ErrCascade)
}

// cascadeAbort is the panic payload of a rank that aborts because the
// world's failed channel closed; Run translates it into a CascadeError.
type cascadeAbort struct{}
