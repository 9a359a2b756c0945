package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pxml/internal/admission"
	"pxml/internal/server"
	"pxml/internal/store"
)

// serverConfig is the pxmld configuration every run serves with: the
// durable store under fsync=always (the pxmld default) and every
// middleware gate switched on with limits no workload reaches, so each
// request pays for admission, the inflight limit, the deadline, the
// governor's admission check and the circuit breaker.
func serverConfig(dataDir string) server.Config {
	return server.Config{
		StoreDir:         dataDir,
		StoreOptions:     store.Options{Fsync: store.FsyncAlways},
		RequestTimeout:   30 * time.Second,
		MaxInflight:      64,
		QueryMaxNodes:    1 << 40,
		QueryMaxBytes:    1 << 34,
		BreakerThreshold: 5,
		DefaultQuota:     admission.Quota{Rate: 1e9, Burst: 1e9},
	}
}

// clockPath is served by the traced server's wrapper (not by pxmld): it
// reports the handler time of every tagged request and the process's
// allocation count.
const clockPath = "/bench/clock"

type clockReport struct {
	HandlerNs []int64 `json:"handler_ns"`
	Mallocs   uint64  `json:"mallocs"`
}

// handlerClock wraps Server.Handler() and records, per tagged sequence
// number, the wall time the handler took: the server-side share of a
// request, which splits the client-observed latency off the transport.
type handlerClock struct {
	next http.Handler
	ns   []atomic.Int64
}

func (c *handlerClock) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == clockPath {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		rep := clockReport{HandlerNs: make([]int64, len(c.ns)), Mallocs: ms.Mallocs}
		for i := range c.ns {
			rep.HandlerNs[i] = c.ns[i].Load()
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(rep)
		return
	}
	seq := -1
	if v := r.Header.Get(seqHeader); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 && n < len(c.ns) {
			seq = n
		}
	}
	start := time.Now()
	c.next.ServeHTTP(w, r)
	if seq >= 0 {
		c.ns[seq].Store(int64(time.Since(start)))
	}
}

// serve is the server process: pxmld's serving stack on a loopback port.
// It prints "listening <addr>" once accepting, and exits when its stdin
// closes (the benchmark stopping it, or the benchmark dying).
func serve(dataDir string, clockSize int) error {
	srv, err := server.New(serverConfig(dataDir))
	if err != nil {
		return err
	}
	h := srv.Handler()
	if clockSize > 0 {
		h = &handlerClock{next: h, ns: make([]atomic.Int64, clockSize)}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	fmt.Printf("listening %s\n", ln.Addr())
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
	}()
	err = hs.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// serverProc is a running server process.
type serverProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	base  string
	done  chan error
}

// startServer starts this binary in server mode on dataDir and waits
// until /readyz answers 200.
func startServer(dataDir string, clockSize int) (*serverProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-serve", "-data", dataDir, "-clock", strconv.Itoa(clockSize))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, stdin: stdin, done: make(chan error, 1)}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	go func() { p.done <- cmd.Wait() }()
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "listening ")
	if err != nil || !ok {
		p.stop()
		return nil, fmt.Errorf("server did not start (read %q: %v)", line, err)
	}
	p.base = "http://" + addr
	if err := p.waitReady(30 * time.Second); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

func (p *serverProc) waitReady(timeout time.Duration) error {
	hc := newClient()
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := hc.Get(p.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after %v (last error %v)", timeout, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// peakRSSMB reads the server process's peak resident set (VmHWM).
func (p *serverProc) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// stop closes the server's stdin and waits for it to exit, killing it
// after a grace period.
func (p *serverProc) stop() error {
	p.stdin.Close()
	select {
	case err := <-p.done:
		return err
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		return fmt.Errorf("server did not exit; killed: %v", <-p.done)
	}
}

// getJSON fetches base+path into v.
func getJSON(base, path string, v any) error {
	hc := newClient()
	defer hc.CloseIdleConnections()
	resp, err := hc.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
