package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// prober is a child process of the benchmark's own binary that times
// the reference job on request, to tell how fast the host runs right
// after each setup. It runs apart from the generator so that the
// generator's heap and collections never slow the job down.
type prober struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

func startProber() (*prober, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("starting the probe: %w", err)
	}
	cmd := exec.Command(self, "-probe")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the probe: %w", err)
	}
	return &prober{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// probeTime is how long the probe runs the reference job after each
// setup.
const probeTime = 100 * time.Millisecond

// run has the probe run the reference job for d and returns its speed:
// jobs per second per CPU.
func (p *prober) run(d time.Duration) (float64, error) {
	if _, err := fmt.Fprintln(p.in, d.Microseconds()); err != nil {
		return 0, fmt.Errorf("probe: %w", err)
	}
	line, err := p.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("probe: %w", err)
	}
	speed, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
	if err != nil {
		return 0, fmt.Errorf("probe: %w", err)
	}
	return speed, nil
}

// stop closes the probe's input, which ends it, and waits for it. An
// exit error is dropped: every speed the run uses was already read.
func (p *prober) stop() {
	p.in.Close()
	_ = p.cmd.Wait()
}

// serveProbe is the probe process: for each line holding a duration
// in microseconds it runs the reference job on connections goroutines
// for that long and answers their speed in jobs per second per CPU.
func serveProbe(in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		us, err := strconv.ParseInt(sc.Text(), 10, 64)
		if err != nil {
			return err
		}
		jobs, wall := probeJobs(time.Duration(us) * time.Microsecond)
		if _, err := fmt.Fprintln(out, float64(jobs)/wall.Seconds()/connections); err != nil {
			return err
		}
	}
	return sc.Err()
}

// probeJobs runs the reference job on connections goroutines at once
// until d has passed and returns how many jobs finished and the wall
// time they took.
func probeJobs(d time.Duration) (int, time.Duration) {
	var jobs atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	for g := 0; g < connections; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				referenceJob()
				jobs.Add(1)
			}
		}()
	}
	wg.Wait()
	return int(jobs.Load()), time.Since(start)
}

var referenceSink atomic.Uint64

// referenceTable is the table the reference job reads from.
var referenceTable = func() []uint64 {
	t := make([]uint64, 1<<19)
	for i := range t {
		t[i] = uint64(i) * 2654435761
	}
	return t
}()

// referenceJob builds, encodes and hashes a few graph-like records and
// walks a table: allocation, maps, float math, encoding/json, sha256
// and dependent reads, the kinds of work a fresh proofd does while it
// starts and serves its first requests. It is the benchmark's own
// code, never the program's, so its speed follows only the host.
func referenceJob() {
	type node struct {
		Name   string         `json:"name"`
		Inputs []string       `json:"inputs"`
		Attrs  map[string]int `json:"attrs"`
		FLOPs  float64        `json:"flops"`
	}
	var h uint64 = 1
	for i := 0; i < 4; i++ {
		nodes := make([]node, 48)
		for j := range nodes {
			nodes[j] = node{
				Name:   "n" + strconv.Itoa(i*64+j),
				Inputs: []string{"x" + strconv.Itoa(j), "w" + strconv.Itoa(j)},
				Attrs:  map[string]int{"axis": j % 4, "group": j},
				FLOPs:  math.Sqrt(float64(j+1)) * math.Log1p(float64(i+j)),
			}
		}
		data, err := json.Marshal(nodes)
		if err != nil {
			panic(err)
		}
		sum := sha256.Sum256(data)
		h += uint64(sum[0])
	}
	mask := uint64(len(referenceTable) - 1)
	for i := 0; i < 4000; i++ {
		h += referenceTable[(h*6364136223846793005+uint64(i))>>40&mask]
	}
	referenceSink.Add(h)
}

// refSpeed is the reference host's probe speed, in reference jobs per
// second per CPU: about the median on the 2-vCPU cloud guest the
// benchmark was tuned on. setup_s is scaled to that host.
const refSpeed = 1300.0
