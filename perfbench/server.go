package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// server is one netserve process on a loopback port.
type server struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	started time.Time
	stdout  sync.WaitGroup // the stdout drain goroutine
	stderr  bytes.Buffer
	stopped sync.Once
}

// startServer execs netserve on an ephemeral loopback port and waits
// for its "serving on" line, which it prints after any state restore.
func startServer(bin string, args ...string) (*server, error) {
	s := &server{}
	s.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	s.cmd.Stderr = &s.stderr
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting netserve: %w", err)
	}
	addr := make(chan string, 1)
	s.stdout.Add(1)
	go func() {
		defer s.stdout.Done()
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "netserve: serving on "); ok && !sent {
				addr <- strings.Fields(rest)[0]
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.stop()
			return nil, fmt.Errorf("netserve exited before serving: %s", s.stderr.String())
		}
		s.base = "http://" + a
		return s, nil
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, fmt.Errorf("netserve did not start within 60s")
	}
}

// stop kills the process and waits for it and its output drain to end.
// Nothing the benchmark measures depends on a graceful drain, and a kill
// leaves no state file behind to be restored by a later instance.
func (s *server) stop() {
	s.stopped.Do(func() {
		s.cmd.Process.Kill()
		s.cmd.Wait()
		s.stdout.Wait()
	})
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// get fetches a debug endpoint of the server.
func (s *server) get(ctx context.Context, c *http.Client, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, b)
	}
	return b, nil
}
