package hyperhet

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
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
	files, err := filepath.Glob(".github/workflows/*.yml")
	if err != nil || len(files) == 0 {
		t.Fatalf("no workflow files found: %v", err)
	}
	for _, f := range files {
		doc, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range duplicateStepKeys(string(doc)) {
			t.Errorf("%s: %s", f, d)
		}
	}
}
