package hyperhet

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// A YAML mapping with a repeated key either fails to parse or silently
// keeps one value — in a workflow step, that drops a whole `run:` script
// (it happened: two steps were fused when a `- name:` line was deleted).
// duplicateStepKeys finds every list item that repeats a key. It is not a
// YAML parser; it relies on the shape workflow files have: list items
// start with "- key:", their other keys sit two columns deeper, and block
// scalar bodies are indented deeper still.
func duplicateStepKeys(doc string) []string {
	item := regexp.MustCompile(`^( *)- ([A-Za-z_][\w-]*):`)
	key := regexp.MustCompile(`^( *)([A-Za-z_][\w-]*):`)
	var dups []string
	indent := -1 // key column of the list item being read, -1 outside one
	var seen map[string]bool
	for n, line := range strings.Split(doc, "\n") {
		if m := item.FindStringSubmatch(line); m != nil {
			indent = len(m[1]) + 2
			seen = map[string]bool{m[2]: true}
			continue
		}
		m := key.FindStringSubmatch(line)
		if m == nil || indent < 0 {
			continue
		}
		switch col := len(m[1]); {
		case col < indent:
			indent = -1 // left the item
		case col == indent:
			if seen[m[2]] {
				dups = append(dups, fmt.Sprintf("line %d: key %q repeated in one step", n+1, m[2]))
			}
			seen[m[2]] = true
		}
	}
	return dups
}

func TestWorkflowStepsHaveNoRepeatedKeys(t *testing.T) {
	fused := "steps:\n  - name: a\n    run: |\n      x: 1\n      x: 2\n    run: echo b\n  - name: c\n    run: echo d\n"
	if got := duplicateStepKeys(fused); len(got) != 1 || !strings.Contains(got[0], "line 6") {
		t.Fatalf("lint missed the fused step: %v", got)
	}
	for f, doc := range workflows(t) {
		for _, d := range duplicateStepKeys(doc) {
			t.Errorf("%s: %s", f, d)
		}
	}
}

// workflows reads every workflow file, keyed by path.
func workflows(t *testing.T) map[string]string {
	t.Helper()
	files, err := filepath.Glob(".github/workflows/*.yml")
	if err != nil || len(files) == 0 {
		t.Fatalf("no workflow files found: %v", err)
	}
	docs := make(map[string]string, len(files))
	for _, f := range files {
		doc, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		docs[f] = string(doc)
	}
	return docs
}

// A `go test -run X` step whose pattern matches no test passes without
// running anything, so deleting or renaming a test can silently empty a
// CI step. emptySelections finds every `go test` command in a workflow
// whose -run pattern or -fuzz target selects no Test, Fuzz or Example
// function declared in the command's own packages. The scan is static
// (the `func` lines of the packages' _test.go files, with "./dir/..."
// expanded as go does), and like go test it matches only the part of a
// -run pattern before the first slash. Each alternative of a pattern (see
// alternatives) must select something on its own, so a stale name inside
// a live pattern is caught too. `-run '^$'`, the idiom for "no tests, only
// fuzzing or benchmarks", is exempt.
func emptySelections(doc string) ([]string, error) {
	var empty []string
	for n, line := range strings.Split(doc, "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok {
			continue
		}
		args := shellFields(cmd)
		var pkgs []string
		var sels [][2]string // flag, pattern
		for i := 0; i < len(args); i++ {
			switch a := args[i]; {
			case (a == "-run" || a == "-fuzz") && i+1 < len(args):
				sels = append(sels, [2]string{a, args[i+1]})
				i++
			case a == "." || strings.HasPrefix(a, "./"):
				pkgs = append(pkgs, a)
			}
		}
		names, err := declaredTests(pkgs)
		if err != nil {
			return nil, err
		}
		for _, sel := range sels {
			flag, pattern := sel[0], sel[1]
			if pattern == "^$" {
				continue
			}
			if flag == "-run" {
				pattern, _, _ = strings.Cut(pattern, "/")
			}
			for _, alt := range alternatives(pattern) {
				re, err := regexp.Compile(alt)
				if err != nil {
					return nil, fmt.Errorf("line %d: %s %q: %w", n+1, flag, sel[1], err)
				}
				if !slices.ContainsFunc(names, func(name string) bool {
					return re.MatchString(name) && (flag == "-run" || strings.HasPrefix(name, "Fuzz"))
				}) {
					empty = append(empty, fmt.Sprintf("line %d: %s %q: %q matches nothing in %s",
						n+1, flag, sel[1], alt, strings.Join(pkgs, " ")))
				}
			}
		}
	}
	return empty, nil
}

// alternatives splits a regular expression at its top-level "|": the ones
// outside parentheses and character classes, and not escaped.
func alternatives(pattern string) []string {
	var alts []string
	depth, class, start := 0, false, 0
	for i := 0; i < len(pattern); i++ {
		switch c := pattern[i]; {
		case c == '\\':
			i++
		case class:
			class = c != ']'
		case c == '[':
			class = true
			if strings.HasPrefix(pattern[i+1:], "]") { // "[]" opens a class holding ']'
				i++
			}
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == '|' && depth == 0:
			alts = append(alts, pattern[start:i])
			start = i + 1
		}
	}
	return append(alts, pattern[start:])
}

// shellFields splits a command line on spaces outside single or double
// quotes and drops the quotes.
func shellFields(s string) []string {
	var fields []string
	var cur strings.Builder
	var quote rune
	inField := false
	for _, r := range s {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			cur.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inField = r, true
		case r == ' ' || r == '\t':
			if inField {
				fields = append(fields, cur.String())
				cur.Reset()
				inField = false
			}
		default:
			cur.WriteRune(r)
			inField = true
		}
	}
	if inField {
		fields = append(fields, cur.String())
	}
	return fields
}

var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Example)\w*)\(`)

// declaredTests lists the Test, Fuzz and Example functions declared in
// the _test.go files of the given package paths. A "/..." suffix walks
// the tree below, skipping testdata and directories starting with "." or
// "_" as the go command does.
func declaredTests(pkgs []string) ([]string, error) {
	var dirs []string
	for _, p := range pkgs {
		root, recursive := strings.CutSuffix(p, "/...")
		if !recursive {
			dirs = append(dirs, p)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if name := d.Name(); path != root && (name == "testdata" || name[0] == '.' || name[0] == '_') {
				return filepath.SkipDir
			}
			dirs = append(dirs, path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var names []string
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
				names = append(names, m[1])
			}
		}
	}
	return names, nil
}

func TestAlternatives(t *testing.T) {
	for pattern, want := range map[string][]string{
		"TestA":                  {"TestA"},
		"TestA|TestB":            {"TestA", "TestB"},
		"Kernel(SAD|MEI)$|TestC": {"Kernel(SAD|MEI)$", "TestC"},
		`A[|]B|C\|D|E`:           {"A[|]B", `C\|D`, "E"},
		"[]|]x|y":                {"[]|]x", "y"},
		"^$":                     {"^$"},
	} {
		if got := alternatives(pattern); !slices.Equal(got, want) {
			t.Errorf("alternatives(%q) = %q, want %q", pattern, got, want)
		}
	}
}

func TestWorkflowTestSelectionsAreNotEmpty(t *testing.T) {
	stale := "      - name: Guard stress alone\n" +
		"        run: GOMAXPROCS=2 go test -race -run 'TestGuardStressScheduler' ./internal/sched\n" +
		"      - name: Wrong package\n" +
		"        run: |\n" +
		"          go test -run TestGuardStressScheduler ./internal/guard\n" +
		"          go test ./internal/algo -run '^$' -fuzz FuzzMaxProjectionMatchesDense -fuzztime=10s\n" +
		"          go test ./internal/algo -run '^$' -fuzz FuzzNearestMatchesReference -fuzztime=10s\n" +
		"      - name: One dead alternative\n" +
		"        run: go test -run 'TestGuardStressScheduler|TestAdaptiveMode' ./internal/sched\n"
	got, err := emptySelections(stale)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !strings.HasPrefix(got[0], "line 5:") || !strings.HasPrefix(got[1], "line 7:") ||
		!strings.HasPrefix(got[2], "line 9:") || !strings.Contains(got[2], `"TestAdaptiveMode" matches nothing`) {
		t.Fatalf("lint found %q, want lines 5, 7 and line 9's dead alternative", got)
	}
	for f, doc := range workflows(t) {
		empty, err := emptySelections(doc)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, e := range empty {
			t.Errorf("%s: %s", f, e)
		}
	}
}
