package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Host-side counters read from outside the program: process CPU from
// getrusage, I/O syscalls and device bytes from /proc/self/io, context
// switches from every thread's status file, steal from /proc/stat.

// cpuTime is the process's user+sys CPU so far, every thread included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procIO is the subset of /proc/self/io the per-layer report uses.
type procIO struct {
	syscr, syscw, writeBytes int64
}

func readProcIO() procIO {
	kv := readKV("/proc/self/io")
	return procIO{syscr: kv["syscr"], syscw: kv["syscw"], writeBytes: kv["write_bytes"]}
}

// ctxSwitches sums voluntary and involuntary switches over the live
// threads of the process.
func ctxSwitches() int64 {
	dirs, _ := filepath.Glob("/proc/self/task/*/status")
	var n int64
	for _, d := range dirs {
		kv := readKV(d)
		n += kv["voluntary_ctxt_switches"] + kv["nonvoluntary_ctxt_switches"]
	}
	return n
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	// VmHWM reads "1664 kB"; readKV keeps the leading number.
	return float64(readKV("/proc/self/status")["VmHWM"]) / 1024
}

// cpuStat is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuStat struct {
	total, steal int64
}

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	var s cpuStat
	if len(f) < 2 || f[0] != "cpu" {
		return s
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user, so it is not added again.
	for i, v := range f[1:] {
		if i >= 8 {
			break
		}
		n, _ := strconv.ParseInt(v, 10, 64)
		s.total += n
		if i == 7 {
			s.steal = n
		}
	}
	return s
}

// stealPct is the share of all CPU time the hypervisor took between two
// /proc/stat readings, host-wide.
func stealPct(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// readKV parses "key: value ..." lines into integers, keeping the first
// field of each value.
func readKV(path string) map[string]int64 {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	out := make(map[string]int64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		fields := strings.Fields(v)
		if len(fields) == 0 {
			continue
		}
		if n, err := strconv.ParseInt(fields[0], 10, 64); err == nil {
			out[strings.TrimSpace(k)] = n
		}
	}
	return out
}

// hostSnap brackets a measurement window with every host counter.
type hostSnap struct {
	cpu time.Duration
	io  procIO
	ctx int64
	mem runtime.MemStats
}

// snapHost reads the counters.
func snapHost() hostSnap {
	s := hostSnap{cpu: cpuTime(), io: readProcIO(), ctx: ctxSwitches()}
	runtime.ReadMemStats(&s.mem)
	return s
}

// allocated is the heap bytes the process has allocated so far. Reading
// it stops the world for microseconds, so it is read only at window
// boundaries.
func allocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}
