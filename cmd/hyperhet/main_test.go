package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The transcripts and digests under testdata were recorded from the four
// binaries this one replaced (a scene generator, a detector front-end, a
// classifier front-end and a tables printer, as of commit 2d87cef) on a
// 24x16x8 seed-3 scene. Two differences are
// deliberate: run's second header line carries the imbalance figures for
// classifiers too, and gen -format envi names the pair it wrote instead
// of a scene.hc it did not.

// cli runs the command in-process.
func cli(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// tempDir is t.TempDir with a trailing separator, so that stripping it
// from a transcript leaves the bare file names the pins were recorded with.
func tempDir(t *testing.T) string { return t.TempDir() + string(filepath.Separator) }

// gen24 runs gen for the pinned 24x16x8 seed-3 scene and returns its
// stdout with dir stripped.
func gen24(t *testing.T, dir, out string, extra ...string) string {
	t.Helper()
	args := append([]string{"gen", "-o", dir + out, "-lines", "24", "-samples", "16", "-bands", "8", "-seed", "3"}, extra...)
	code, stdout, stderr := cli(args...)
	if code != 0 || stderr != "" {
		t.Fatalf("%q exited %d: %s", args, code, stderr)
	}
	return strings.ReplaceAll(stdout, dir, "")
}

// genScene writes the pinned scene and its sidecar into a fresh directory.
func genScene(t *testing.T) (dir string) {
	t.Helper()
	dir = tempDir(t)
	gen24(t, dir, "scene.hc")
	return dir
}

func golden(t *testing.T, name string) string {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// checkDigests compares files in dir with the digests of the files the
// old generator wrote under the same names.
func checkDigests(t *testing.T, dir string, files ...string) {
	t.Helper()
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(golden(t, "gen_files.sha256")), "\n") {
		sum, name, _ := strings.Cut(line, "  ")
		want[name] = sum
	}
	for _, file := range files {
		blob, err := os.ReadFile(dir + file)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != want[file] {
			t.Errorf("%s: sha256 %s, the pinned one is %s", file, got, want[file])
		}
	}
}

func TestGenMatchesPinnedFiles(t *testing.T) {
	dir := tempDir(t)
	for _, tc := range []struct {
		golden, out string
		extra       []string
		files       []string
	}{
		{"gen_hc.txt", "scene.hc", nil, []string{"scene.hc", "scene.hc.truth.json"}},
		{"gen_hc_quicklook.txt", "scene.hc", []string{"-quicklook", dir + "fig1.ppm"}, []string{"scene.hc", "fig1.ppm"}},
		{"gen_envi_bsq.txt", "envi.hc", []string{"-format", "envi", "-interleave", "bsq"}, []string{"envi.hdr", "envi.img", "envi.hc.truth.json"}},
	} {
		if got, want := gen24(t, dir, tc.out, tc.extra...), golden(t, tc.golden); got != want {
			t.Errorf("%s: printed\n%s\nwant\n%s", tc.golden, got, want)
		}
		checkDigests(t, dir, tc.files...)
	}
	if _, err := os.Stat(dir + "envi.hc"); err == nil {
		t.Error("gen -format envi also wrote envi.hc")
	}

	// The ENVI pair is the same cube: run prints what it prints for scene.hc.
	code, out, stderr := cli("run", "-in", dir+"envi.hdr", "-targets", "4")
	if code != 0 {
		t.Fatalf("run on .hdr exited %d: %s", code, stderr)
	}
	if want := golden(t, "run_atdca_sequential.txt"); out != want {
		t.Errorf("run on ENVI input printed\n%s\nwant\n%s", out, want)
	}
}

func TestRunMatchesPinnedTranscripts(t *testing.T) {
	dir := genScene(t)
	for _, tc := range []struct {
		golden     string
		classifier bool
		args       []string
	}{
		{"run_atdca_sequential.txt", false, []string{"-algorithm", "atdca", "-targets", "4"}},
		{"run_ufcls_fullyhet_trace.txt", false, []string{"-algorithm", "ufcls", "-targets", "4", "-net", "fully-het", "-trace"}},
		// gen -> run -truth round trip: the sidecar is the one gen wrote.
		{"run_morph_thunderhead_truth.txt", true, []string{"-algorithm", "morph", "-classes", "4", "-net", "thunderhead", "-cpus", "4", "-truth", dir + "scene.hc.truth.json"}},
		{"run_pct_homo.txt", true, []string{"-algorithm", "PCT", "-classes", "4", "-variant", "homo"}},
	} {
		code, out, stderr := cli(append([]string{"run", "-in", dir + "scene.hc"}, tc.args...)...)
		if code != 0 || stderr != "" {
			t.Errorf("%s: exit %d, stderr %q", tc.golden, code, stderr)
			continue
		}
		want := golden(t, tc.golden)
		if tc.classifier {
			// The classifier front-end printed no imbalance figures;
			// run prints one header for every algorithm.
			lines := strings.SplitN(want, "\n", 3)
			got := strings.SplitN(out, "\n", 3)
			if len(got) != 3 || !strings.HasPrefix(got[1], lines[1]+", imbalance D_all=") {
				t.Errorf("%s: header %q does not extend %q", tc.golden, got, lines[1])
				continue
			}
			got[1] = lines[1]
			out = strings.Join(got, "\n")
		}
		if out != want {
			t.Errorf("%s: printed\n%s\nwant\n%s", tc.golden, out, want)
		}
	}
}

func TestTablesMatchesPinnedTranscripts(t *testing.T) {
	for _, tc := range []struct {
		golden string
		quiet  bool
		args   []string
	}{
		{"tables_1.txt", true, []string{"-table", "1"}},
		{"tables_3_json.txt", false, []string{"-table", "3", "-json"}},
	} {
		code, out, stderr := cli(append([]string{"tables"}, tc.args...)...)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", tc.golden, code, stderr)
		}
		if want := golden(t, tc.golden); out != want {
			t.Errorf("%s: printed\n%s\nwant\n%s", tc.golden, out, want)
		}
		if progress := strings.Contains(stderr, "running ") && strings.Contains(stderr, "done in "); progress == tc.quiet {
			t.Errorf("%s: progress notes on stderr: %q", tc.golden, stderr)
		}
	}
}

// The two full-size studies take 13 s each — and more than ten minutes
// under the race detector — so they run in the binary as `go build` makes
// it, which also puts main and the process's exit code under test.
func TestBuiltBinaryPrintsTheFullSizeStudies(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs 68 full-size simulations")
	}
	bin := filepath.Join(t.TempDir(), "hyperhet")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"tables_5.txt", []string{"tables", "-table", "5"}},
		{"tables_figure2_quiet.txt", []string{"tables", "-figure", "2", "-quiet"}},
	} {
		tc := tc
		t.Run(tc.golden, func(t *testing.T) {
			t.Parallel()
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin, tc.args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%v\n%s", err, stderr.Bytes())
			}
			if want := golden(t, tc.golden); stdout.String() != want {
				t.Errorf("printed\n%s\nwant\n%s", stdout.Bytes(), want)
			}
		})
	}
	var exit *exec.ExitError
	if err := exec.Command(bin, "tables", "-table", "9").Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Errorf("a usage error ended the process with %v, want exit status 2", err)
	}
}

func TestUsageErrorsExit2AndWriteNothing(t *testing.T) {
	dir := genScene(t)
	in := dir + "scene.hc"
	empty := tempDir(t)
	for _, tc := range []struct {
		want string // in stderr, before the usage text
		args []string
	}{
		{`unknown verb "detect"`, []string{"detect"}},
		{"Usage: hyperhet <verb>", nil},

		{"-in is required", []string{"run"}},
		{`unexpected argument "scene.hc"`, []string{"run", "scene.hc"}},
		{"flag provided but not defined: -bogus", []string{"run", "-in", in, "-bogus"}},
		{`invalid value "many" for flag -targets`, []string{"run", "-in", in, "-targets", "many"}},
		{`unknown algorithm "sam" (want atdca, ufcls, pct or morph)`, []string{"run", "-in", in, "-algorithm", "sam"}},
		{`unknown variant "wea" (want hetero or homo)`, []string{"run", "-in", in, "-variant", "wea"}},
		{`unknown network "umd" (want fully-het, fully-homo, part-het, part-homo or thunderhead)`, []string{"run", "-in", in, "-net", "umd"}},
		{"thunderhead node count 300 outside [1,256]", []string{"run", "-in", in, "-net", "thunderhead", "-cpus", "300"}},
		{"-targets must be positive, got 0", []string{"run", "-in", in, "-targets", "0"}},
		{"-classes must be positive, got -1", []string{"run", "-in", in, "-algorithm", "pct", "-classes", "-1"}},
		{"-targets does not apply to MORPH", []string{"run", "-in", in, "-algorithm", "morph", "-targets", "4"}},
		{"-classes does not apply to ATDCA", []string{"run", "-in", in, "-classes", "4"}},
		{"-truth does not apply to UFCLS", []string{"run", "-in", in, "-algorithm", "ufcls", "-truth", in + ".truth.json"}},

		{`unexpected argument "scene.hc"`, []string{"gen", "scene.hc"}},
		{"-o must not be empty", []string{"gen", "-o", ""}},
		{"-snr must be non-negative dB, got -3", []string{"gen", "-o", empty + "s.hc", "-snr", "-3"}},
		{`unknown format "tiff" (want hc or envi)`, []string{"gen", "-o", empty + "s.hc", "-format", "tiff"}},
		{`unknown interleave "bpi" (want bip, bil or bsq)`, []string{"gen", "-o", empty + "s.hc", "-interleave", "bpi"}},
		{"scene: 4x16 too small", []string{"gen", "-o", empty + "s.hc", "-lines", "4", "-samples", "16"}},
		{"scene: 0 bands too few", []string{"gen", "-o", empty + "s.hc", "-bands", "0"}},

		{`unexpected argument "5"`, []string{"tables", "5"}},
		{"-table must be 1..8, got 9", []string{"tables", "-table", "9"}},
		{"-figure must be 2 (the paper's only figure), got 1", []string{"tables", "-figure", "1"}},
	} {
		code, stdout, stderr := cli(tc.args...)
		if code != 2 || stdout != "" {
			t.Errorf("%q: exit %d, stdout %q; want exit 2 and no output", tc.args, code, stdout)
		}
		msg, usage, _ := strings.Cut(stderr, "\n")
		if !strings.Contains(msg, tc.want) {
			t.Errorf("%q: stderr starts %q, want it to contain %q", tc.args, msg, tc.want)
		}
		if len(tc.args) > 1 && !strings.HasPrefix(usage, "Usage of hyperhet "+tc.args[0]+":\n  -") {
			t.Errorf("%q: no verb usage after the message: %q", tc.args, usage)
		}
	}
	if left, _ := os.ReadDir(empty); len(left) != 0 {
		t.Errorf("a refused gen wrote %v", left)
	}
}

func TestHelpExits0(t *testing.T) {
	for _, v := range verbs {
		code, stdout, stderr := cli(v.name, "-h")
		if code != 0 || stdout != "" || !strings.HasPrefix(stderr, "Usage of hyperhet "+v.name+":\n") {
			t.Errorf("%s -h: exit %d, stdout %q, stderr %q", v.name, code, stdout, stderr)
		}
	}
}

func TestRuntimeErrorsExit1WithoutUsage(t *testing.T) {
	dir := genScene(t)
	for _, args := range [][]string{
		{"run", "-in", dir + "missing.hc"},
		{"run", "-in", dir + "missing.hdr"},
		{"run", "-in", dir + "scene.hc.truth.json"}, // not a cube
		{"run", "-in", dir + "scene.hc", "-algorithm", "pct", "-truth", dir + "missing.json"},
		{"run", "-in", dir + "scene.hc", "-algorithm", "pct", "-truth", dir + "scene.hc"}, // not JSON
		{"run", "-in", dir + "scene.hc"},                                                  // 18 targets from 8 bands
		{"gen", "-o", dir + "no/such/dir/scene.hc", "-lines", "24", "-samples", "16", "-bands", "8"},
		{"gen", "-o", dir + "s.hc", "-lines", "24", "-samples", "16", "-bands", "8", "-quicklook", dir + "no/such/dir/q.ppm"},
	} {
		code, stdout, stderr := cli(args...)
		if code != 1 || stdout != "" || !strings.HasPrefix(stderr, "hyperhet "+args[0]+": ") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 1 and one error line", args, code, stdout, stderr)
		}
	}
}
