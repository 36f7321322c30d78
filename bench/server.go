package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"diversefw/internal/api"
	"diversefw/internal/engine"
)

// server is one child fwserved process.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
}

// jobsRetention is how long fwserved keeps a finished job, in place of
// its 15-minute default. Finished jobs count toward the store's cap of
// 256 until they are purged, and every other crosscompare op submits
// one, so with the default a run faster than about 20 ops/s over 25 s
// would be refused with 429s. A client reads its job within one 5 ms
// poll of it finishing, so two seconds is ample; the cap then binds only
// past some 250 ops/s.
const jobsRetention = 2 * time.Second

// startServer execs fwserved on an ephemeral loopback port with its
// default flags plus a fresh job journal and jobsRetention, and returns
// once the process has logged the address it listens on.
func startServer(bin, journal string) (*server, error) {
	if err := os.RemoveAll(journal); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-jobs-journal", journal,
		"-jobs-retention", jobsRetention.String())
	// The server must not outlive a benchmark that dies without running
	// its deferred stop.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	lw := &listenWatcher{found: make(chan struct{})}
	cmd.Stderr = lw
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start fwserved: %w", err)
	}
	s := &server{cmd: cmd}
	select {
	case <-lw.found:
		s.base = "http://" + lw.addr
		return s, nil
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("fwserved never logged its listening address")
	}
}

// listenWatcher receives the server's structured log on stderr, picks
// the address out of the "listening" line, and drops everything else.
// Only exec's copying goroutine writes to it; addr is read after found
// is closed.
type listenWatcher struct {
	buf   []byte
	addr  string
	found chan struct{}
}

func (w *listenWatcher) Write(p []byte) (int, error) {
	if w.addr != "" {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		var line struct {
			Msg  string `json:"msg"`
			Addr string `json:"addr"`
		}
		if json.Unmarshal(w.buf[:i], &line) == nil && line.Msg == "listening" && line.Addr != "" {
			w.addr, w.buf = line.Addr, nil
			close(w.found)
			return len(p), nil
		}
		w.buf = w.buf[i+1:]
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// waitHealthy polls /healthz until it answers 200.
func (s *server) waitHealthy(client *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fwserved not healthy after %v (last error %v)", timeout, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// pause stops the server process (SIGSTOP) and returns once the kernel
// shows it stopped, so nothing it does competes with what runs next.
func (s *server) pause() error {
	if err := s.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		return err
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.pid()))
		if err != nil {
			return err
		}
		// The state is the first field after the command's closing
		// parenthesis; T is stopped.
		if i := bytes.LastIndexByte(b, ')'); i+2 < len(b) && b[i+2] == 'T' {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fwserved did not stop")
		}
		time.Sleep(time.Millisecond)
	}
}

// resume continues a paused server.
func (s *server) resume() error { return s.cmd.Process.Signal(syscall.SIGCONT) }

// stop asks the server to drain (SIGTERM) and waits for it to exit,
// killing it if the drain overruns. A paused server is continued first.
func (s *server) stop() {
	if s == nil || s.cmd.Process == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGCONT)
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 for user space.
const clockTick = 10 * time.Millisecond

// procCPU returns the process's user+system CPU time.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after its
	// closing parenthesis are space-separated, utime and stime being
	// fields 14 and 15 of the whole line.
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat cpu fields", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// resetPeakRSS restarts the process's peak resident set (VmHWM) from its
// current one: Linux's clear_refs, value 5.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// procMemMiB returns a memory figure from /proc/<pid>/status in MiB:
// field "VmHWM" is the peak resident set since it was last reset.
func procMemMiB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("bad %s %q", field, line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// counters is the server-side state read around the timed rounds.
type counters struct {
	cache      engine.Stats
	gcPauseSec float64
	revision   string
}

func (s *server) counters(client *http.Client) (counters, error) {
	var c counters
	var v api.VersionResponse
	if err := getJSON(client, s.base+"/v1/version", &v); err != nil {
		return c, err
	}
	c.cache, c.revision = v.Cache, v.Revision
	resp, err := client.Get(s.base + "/metrics")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return c, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "fwproc_gc_pause_seconds "); ok {
			c.gcPauseSec, err = strconv.ParseFloat(strings.TrimSpace(v), 64)
			return c, err
		}
	}
	return c, fmt.Errorf("no fwproc_gc_pause_seconds on /metrics")
}

func getJSON(client *http.Client, url string, v interface{}) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// buildServer compiles diversefw/cmd/fwserved into dir. It runs in the
// current directory, which must lie inside the benchmark's module.
func buildServer(dir string) (string, error) {
	bin := filepath.Join(dir, "fwserved")
	cmd := exec.Command("go", "build", "-o", bin, "diversefw/cmd/fwserved")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build fwserved: %w", err)
	}
	return bin, nil
}
