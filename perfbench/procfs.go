package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc (100 on
// every Linux architecture Go supports).
const clockTicks = 100

// parsePidStat reads a process's user and system CPU ticks from the
// text of /proc/<pid>/stat. The command name in field 2 may hold
// spaces and parentheses, so fields are counted after its last ')'.
func parsePidStat(data []byte) (utime, stime uint64, err error) {
	end := bytes.LastIndexByte(data, ')')
	if end < 0 {
		return 0, 0, fmt.Errorf("pid stat: no command field")
	}
	// Fields after the command start at field 3 (state); utime and
	// stime are fields 14 and 15.
	f := strings.Fields(string(data[end+1:]))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("pid stat: %d fields after the command, want at least 13", len(f))
	}
	if utime, err = strconv.ParseUint(f[11], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("pid stat utime: %w", err)
	}
	if stime, err = strconv.ParseUint(f[12], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("pid stat stime: %w", err)
	}
	return utime, stime, nil
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in ticks.
type cpuTimes struct {
	steal, total uint64
}

// parseProcStat reads the all-CPU line of /proc/stat: total is user
// through steal (guest time is already inside user), steal the time
// the hypervisor ran something else while this guest wanted the CPU.
func parseProcStat(data []byte) (cpuTimes, error) {
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("proc stat: unexpected first line %q", line)
	}
	var t cpuTimes
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("proc stat field %d: %w", i, err)
		}
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t, nil
}

// parseVmHWM reads the peak resident set size, in KiB, from the text
// of /proc/<pid>/status.
func parseVmHWM(data []byte) (uint64, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		num, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
		return strconv.ParseUint(num, 10, 64)
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// parseMemStats reads the integer fields of the runtime.MemStats block
// that /debug/pprof/heap?debug=1 appends to the heap profile, lines
// like "# Mallocs = 123". Array fields such as PauseNs are skipped.
func parseMemStats(data []byte) (map[string]uint64, error) {
	_, block, ok := bytes.Cut(data, []byte("# runtime.MemStats\n"))
	if !ok {
		return nil, fmt.Errorf("heap profile: no runtime.MemStats block")
	}
	out := make(map[string]uint64)
	sc := bufio.NewScanner(bytes.NewReader(block))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "# ")
		if !ok {
			continue
		}
		name, val, ok := strings.Cut(line, " = ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseUint(val, 10, 64); err == nil {
			out[name] = v
		}
	}
	for _, need := range []string{"Mallocs", "TotalAlloc", "HeapAlloc", "NumGC"} {
		if _, ok := out[need]; !ok {
			return nil, fmt.Errorf("heap profile: MemStats block has no %s", need)
		}
	}
	return out, nil
}

// pidCPU returns a process's user+system CPU in ticks.
func pidCPU(pid int) (uint64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	u, s, err := parsePidStat(data)
	return u + s, err
}

// hostCPU returns the host-wide CPU line of /proc/stat.
func hostCPU() (cpuTimes, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	return parseProcStat(data)
}

// peakRSS returns a process's VmHWM in KiB.
func peakRSS(pid int) (uint64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(data)
}
