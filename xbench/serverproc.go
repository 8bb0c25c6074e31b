package main

// serverproc.go runs xtree-serve as its own process and reads it from
// outside: /healthz, /metrics, /v1/sessions, and the process's CPU time and
// peak RSS from /proc.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

type serverProc struct {
	cmd    *exec.Cmd
	url    string
	http   *http.Client
	exited chan struct{}

	mu      sync.Mutex
	logTail []string // last lines of the server's stderr, for error reports
}

// startServer launches bin with its default flags plus -quiet, on an
// ephemeral loopback port read back from its startup log line.
func startServer(bin string) (*serverProc, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-quiet")
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &serverProc{cmd: cmd, exited: make(chan struct{}),
		http: &http.Client{Timeout: 30 * time.Second}}
	urlc := make(chan string, 1)
	go func() {
		s.readLog(stderr, urlc) // returns at EOF, when the server exits
		_ = cmd.Wait()          // the log tail already says why it exited
		close(s.exited)
	}()
	select {
	case s.url = <-urlc:
		return s, nil
	case <-s.exited:
		return nil, fmt.Errorf("server exited before listening: %s", s.tail())
	case <-time.After(20 * time.Second):
		s.stop()
		return nil, fmt.Errorf("server did not report its address: %s", s.tail())
	}
}

// readLog forwards the listen URL from the startup log and keeps the tail.
func (s *serverProc) readLog(r io.Reader, urlc chan<- string) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			select {
			case urlc <- strings.TrimSpace(line[i+len("listening on "):]):
			default:
			}
		}
		s.mu.Lock()
		s.logTail = append(s.logTail, line)
		if len(s.logTail) > 20 {
			s.logTail = s.logTail[1:]
		}
		s.mu.Unlock()
	}
	// Keep draining after an over-long line, or the server would block
	// writing to a full pipe.
	_, _ = io.Copy(io.Discard, r)
}

func (s *serverProc) tail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.logTail, " | ")
}

// stop sends SIGTERM, waits for the drain, and kills after 20 s.
func (s *serverProc) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// waitHealthy polls /healthz until the server answers "ok".
func (s *serverProc) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		var h healthResponse
		err := s.getJSON(ctx, "/healthz", &h)
		if err == nil && h.Status == "ok" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not healthy after 20s: %v (%s)", err, s.tail())
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.exited:
			return fmt.Errorf("server exited: %s", s.tail())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (s *serverProc) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

func (s *serverProc) getJSON(ctx context.Context, path string, v any) error {
	body, err := s.get(ctx, path)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// promSample is one /metrics scrape: series (name plus labels exactly as
// printed) to value.
type promSample map[string]float64

func (s *serverProc) scrape(ctx context.Context) (promSample, error) {
	body, err := s.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(string(body))
}

func parseProm(text string) (promSample, error) {
	out := promSample{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// routeCounts returns xtreesim_http_requests_total by "route code".
func (p promSample) routeCounts() map[string]float64 {
	out := map[string]float64{}
	const prefix = `xtreesim_http_requests_total{route="`
	for k, v := range p {
		if rest, ok := strings.CutPrefix(k, prefix); ok {
			route, code, _ := strings.Cut(rest, `",code="`)
			out[route+" "+strings.TrimSuffix(code, `"}`)] = v
		}
	}
	return out
}

// cpuTime reads the server's user+system CPU time from /proc.
func (s *serverProc) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(b[strings.LastIndexByte(string(b), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSS reads the server's peak resident set (VmHWM) in bytes.
func (s *serverProc) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
