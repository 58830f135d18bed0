package hyperhet

import (
	"bytes"
	"os"
	"os/exec"
	"testing"
)

// TestExamplesRun builds and runs every program under examples/ the way
// the README tells a reader to: each must exit 0 and print something.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs seven programs")
	}
	dirs, err := os.ReadDir("examples")
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	for _, d := range dirs {
		d := d
		t.Run(d.Name(), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command("go", "run", "./examples/"+d.Name())
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("go run: %v\n%s", err, stderr.Bytes())
			}
			if stdout.Len() == 0 {
				t.Error("printed nothing")
			}
		})
	}
}
