package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"syscall"
	"time"
)

// daemon is one proofd process on loopback, started with default flags
// plus a loopback -debug-addr for the heap endpoint.
type daemon struct {
	cmd    *exec.Cmd
	addr   string // http://host:port of the public listener
	debug  string // http://host:port of the debug listener
	client *http.Client
	exited chan struct{}
	err    error // the process's exit error, set before exited closes
}

// startDaemon execs bin and waits for its first 200 from /healthz.
func startDaemon(ctx context.Context, bin string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	dport, err := freePort()
	if err != nil {
		return nil, err
	}
	d := &daemon{
		addr:  fmt.Sprintf("http://127.0.0.1:%d", port),
		debug: fmt.Sprintf("http://127.0.0.1:%d", dport),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: connections,
			MaxConnsPerHost:     connections,
			DisableCompression:  true,
		}},
		exited: make(chan struct{}),
	}
	d.cmd = exec.Command(bin,
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-debug-addr", fmt.Sprintf("127.0.0.1:%d", dport))
	// proofd logs one JSON line per request to stderr; the benchmark
	// discards them (a nil Stderr is /dev/null). Pdeathsig takes proofd
	// down with the benchmark if the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting proofd: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	if err := d.waitHealthy(ctx, 30*time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

func (d *daemon) waitHealthy(ctx context.Context, limit time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, limit)
	defer cancel()
	for {
		resp, err := d.client.Get(d.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("proofd exited before it was healthy: %v", d.err)
		case <-ctx.Done():
			return fmt.Errorf("waiting for proofd to be healthy: %w (last error: %v)", ctx.Err(), err)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM, which drains proofd, and kills it if the drain
// takes longer than 20s. It returns once the process has exited.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// waitIdle returns once proofd has used no CPU for idleGap, so that
// work it does after the last reply (a collection, a sweep) is not
// running while the probe times the host; it gives up after a second.
func (d *daemon) waitIdle(ctx context.Context) error {
	last, err := pidCPU(d.pid())
	if err != nil {
		return err
	}
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(idleGap):
		}
		cpu, err := pidCPU(d.pid())
		if err != nil {
			return err
		}
		if cpu == last {
			return nil
		}
		last = cpu
	}
	return nil
}

// idleGap is how long proofd must use no CPU to count as idle: three
// clock ticks.
const idleGap = 30 * time.Millisecond

// memStats reads proofd's runtime.MemStats from the heap endpoint;
// gc forces a collection first, so HeapAlloc is the live heap.
func (d *daemon) memStats(gc bool) (map[string]uint64, error) {
	url := d.debug + "/debug/pprof/heap?debug=1"
	if gc {
		url += "&gc=1"
	}
	resp, err := d.client.Get(url)
	if err != nil {
		return nil, fmt.Errorf("reading proofd heap profile: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading proofd heap profile: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("proofd heap profile: status %d", resp.StatusCode)
	}
	return parseMemStats(data)
}

// reply is one classified proofd response.
type reply struct {
	status int
	cache  string // X-Cache
	body   []byte // valid until the next post with the same buffer
}

// post sends one profile request, reading the response into buf.
func (d *daemon) post(l *requestList, r *request, buf *bytes.Buffer) (reply, error) {
	var body io.Reader
	if r.graph < 0 {
		body = bytes.NewReader(r.body)
	} else {
		body = &net.Buffers{l.heads[r.graph], r.body}
	}
	req, err := http.NewRequest(http.MethodPost, d.addr+"/v1/profile", body)
	if err != nil {
		return reply{}, err
	}
	req.ContentLength = int64(l.bodyLen(r))
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, fmt.Errorf("reading response body: %w", err)
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: buf.Bytes()}, nil
}

// checkReply applies the per-response contract: 200, the expected
// X-Cache outcome, and a body that starts by naming the requested
// model and platform. It returns the failure's class, "" when none.
func checkReply(rep reply, r *request, wantCache string) string {
	switch {
	case rep.status != http.StatusOK:
		return fmt.Sprintf("status %d", rep.status)
	case rep.cache != wantCache:
		return fmt.Sprintf("x-cache %q", rep.cache)
	case !bytes.HasPrefix(rep.body, r.prefix):
		return "prefix"
	}
	return ""
}
