package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// findRoot walks up from the working directory to the module root: go run
// starts the harness in the checkout root, go test in bench/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "hyperhetd")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no module root with cmd/hyperhetd above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles cmd/hyperhetd from the checkout's source into outDir
// and returns the binary path and the build's wall time.
func buildServer(root, outDir string) (string, float64, error) {
	bin := filepath.Join(outDir, "hyperhetd")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/hyperhetd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/hyperhetd: %w\n%s", err, out)
	}
	return bin, time.Since(start).Seconds(), nil
}

// freeAddr asks the kernel for a free loopback port and releases it, as
// scripts/crash_restart_smoke.sh does; the server binds it a moment later.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// server is one hyperhetd subprocess.
type server struct {
	cmd        *exec.Cmd
	base       string // http://host:port
	journalDir string
	logFile    *os.File
	exited     chan error // receives cmd.Wait's result once
	started    time.Time  // exec
	bootMS     float64    // exec to first /healthz ok
	ctl        *http.Client
}

// drainTimeout is hyperhetd's default -drain-timeout; a SIGINT shutdown
// that takes longer, or exits non-zero, invalidates the run.
const drainTimeout = 10 * time.Second

// startServer execs hyperhetd on a fresh port with stderr appended to
// logPath and returns once /healthz answers. journalDir "" runs without
// -journal.
func startServer(bin, logPath, journalDir string) (*server, error) {
	var lastErr error
	// The released port can be taken before the server binds it; try again
	// on another.
	for attempt := 0; attempt < 3; attempt++ {
		s, err := startServerOnce(bin, logPath, journalDir)
		if err == nil {
			return s, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func startServerOnce(bin, logPath, journalDir string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("allocating a port: %w", err)
	}
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr}, strings.Fields(serverFlags)...)
	if journalDir != "" {
		args = append(args, "-journal", journalDir)
	}
	s := &server{
		cmd:        exec.Command(bin, args...),
		base:       "http://" + addr,
		journalDir: journalDir,
		logFile:    logFile,
		exited:     make(chan error, 1),
		ctl:        &http.Client{Timeout: 10 * time.Second},
	}
	s.cmd.Stderr = logFile
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting hyperhetd: %w", err)
	}
	go func() { s.exited <- s.cmd.Wait() }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := s.ctl.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.bootMS = ms(time.Since(s.started))
				return s, nil
			}
		}
		select {
		case werr := <-s.exited:
			logFile.Close()
			return nil, fmt.Errorf("hyperhetd exited during start-up (%v); see %s", werr, logPath)
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("hyperhetd never became healthy; see %s", logPath)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the server down with SIGINT and requires a clean exit within
// the drain timeout.
func (s *server) stop() error {
	defer s.logFile.Close()
	if err := s.cmd.Process.Signal(os.Interrupt); err != nil {
		return fmt.Errorf("signalling hyperhetd: %w", err)
	}
	select {
	case err := <-s.exited:
		if err != nil {
			return fmt.Errorf("hyperhetd did not exit 0 on SIGINT: %w", err)
		}
		return nil
	case <-time.After(drainTimeout + 2*time.Second):
		s.cmd.Process.Kill()
		<-s.exited
		return errors.New("hyperhetd did not exit within the drain timeout on SIGINT")
	}
}

// kill ends the server with SIGKILL, the crash the durable workload's
// traced pass ends with, and waits for it.
func (s *server) kill() {
	s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.exited
	s.logFile.Close()
}

// cpuSeconds is the server's user+system CPU time so far, from
// /proc/<pid>/stat. Linux reports it in clock ticks of 1/100 s (USER_HZ,
// fixed at 100 on every supported architecture).
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name in parentheses may hold spaces; fields resume after it.
	rest := string(b)
	rest = rest[strings.LastIndexByte(rest, ')')+1:]
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat format: %q", b)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64) // field 14 overall
	stime, err2 := strconv.ParseFloat(f[12], 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat format: %q", b)
	}
	return (utime + stime) / 100, nil
}

// peakRSSMB is the server's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// schedStats is the part of GET /stats the benchmark reads.
type schedStats struct {
	Submitted uint64 `json:"submitted"`
	Rejected  uint64 `json:"rejected"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
	Retries   uint64 `json:"retries"`
	CacheHits uint64 `json:"cache_hits"`
}

func (s *server) stats() (schedStats, error) {
	var st schedStats
	resp, err := s.ctl.Get(s.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// settledStats waits (bounded) until every submitted job is counted as
// settled — the settle path bumps its counters after a poller can already
// see the terminal state — and returns that snapshot.
func (s *server) settledStats() (schedStats, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := s.stats()
		if err != nil {
			return st, err
		}
		if st.Completed+st.Failed+st.Cancelled == st.Submitted {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("/stats never settled: submitted %d, completed+failed+cancelled %d",
				st.Submitted, st.Completed+st.Failed+st.Cancelled)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// scrape fetches and parses /metrics, returning the samples and how long
// the scrape took.
func (s *server) scrape() (promSamples, float64, error) {
	start := time.Now()
	resp, err := s.ctl.Get(s.base + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	p, err := parseProm(resp.Body)
	return p, ms(time.Since(start)), err
}
