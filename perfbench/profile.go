package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU split decodes the runtime/pprof profile (gzipped protobuf) with
// a minimal reader of the four messages it needs, so the benchmark stays
// on the standard library.

// cpuModules are the repository's layers that get their own
// cpu_share.<module>; every other frame lands in cpu_share.other.
var cpuModules = []string{
	"wire", "bufpool", "netv3", "mqcache", "diskq", "vvault", "repl",
	"workload", "obs", "sim", "core", "vi", "vinic", "oltp",
}

// runtimeBuckets are the Go-runtime shares reported beside the modules.
var runtimeBuckets = []string{"runtime.syscall", "runtime.sched", "runtime.gc"}

// cpuShares splits a CPU profile's self time by module, in percent of
// all samples; the values, "other" included, sum to 100.
func cpuShares(prof []byte) (map[string]float64, error) {
	stacks, weights, err := decodeProfile(prof)
	if err != nil {
		return nil, err
	}
	acc := make(map[string]float64)
	var total float64
	for i, st := range stacks {
		acc[classify(st)] += float64(weights[i])
		total += float64(weights[i])
	}
	out := make(map[string]float64)
	named := append(append([]string(nil), cpuModules...), runtimeBuckets...)
	var sum float64
	for _, m := range named {
		out[m] = 100 * ratio(acc[m], total)
		sum += out[m]
	}
	// The remainder is printed, not dropped, so the shares add to 100.
	out["other"] = 100 - sum
	return out, nil
}

// classify names the bucket of one sampled stack (leaf first). Kernel
// time inside a system call is the syscall bucket whoever made it; the
// scheduler, channel and lock paths are the sched bucket; mark, sweep
// and assist work is the gc bucket. Any other runtime helper (memmove,
// mallocgc, map access) is charged to the first repository frame above
// it, so a module's share includes the helpers it calls.
func classify(stack []string) string {
	for _, f := range stack {
		if isGCFrame(f) {
			return "runtime.gc"
		}
	}
	if len(stack) == 0 {
		return "other"
	}
	leaf := stack[0]
	switch {
	case strings.HasPrefix(leaf, "syscall.") ||
		strings.HasPrefix(leaf, "internal/runtime/syscall.") ||
		strings.HasPrefix(leaf, "runtime/internal/syscall."):
		return "runtime.syscall"
	case isSchedFrame(leaf):
		return "runtime.sched"
	}
	for _, f := range stack {
		if m := moduleOf(f); m != "" {
			return m
		}
		if !isRuntimeHelper(f) {
			return "other"
		}
	}
	return "other"
}

// moduleOf maps a function name to its repository module, "" when the
// frame is outside internal/.
func moduleOf(fn string) string {
	const marker = "/internal/"
	i := strings.Index(fn, marker)
	if i < 0 || !strings.Contains(fn[:i], "v3storage") {
		return ""
	}
	rest := fn[i+len(marker):]
	pkg, _, _ := strings.Cut(rest, ".")
	pkg, _, _ = strings.Cut(pkg, "/")
	for _, m := range cpuModules {
		if m == pkg {
			return m
		}
	}
	return "other"
}

// isRuntimeHelper reports frames that are charged to their caller:
// runtime, standard-library and compiler-generated helpers.
func isRuntimeHelper(fn string) bool {
	if strings.Contains(fn, "v3storage") {
		return false
	}
	pkg := fn
	if i := strings.LastIndex(fn, "/"); i >= 0 {
		pkg = fn[i:]
	}
	pkg, _, _ = strings.Cut(pkg, ".")
	return strings.TrimPrefix(pkg, "/") != "main"
}

var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.gcStart", "runtime.sweepone",
	"runtime._GC", "runtime.gcMarkDone", "runtime.gcMarkTermination",
}

func isGCFrame(fn string) bool {
	for _, g := range gcFrames {
		if strings.HasPrefix(fn, g) {
			return true
		}
	}
	return false
}

var schedFrames = []string{
	"runtime.futex", "runtime.usleep", "runtime.osyield",
	"runtime.epollwait", "runtime.netpoll", "runtime.schedule",
	"runtime.findRunnable", "runtime.park_m", "runtime.ready",
	"runtime.goready", "runtime.gopark", "runtime.mcall", "runtime.gosched",
	"runtime.chanrecv", "runtime.chansend", "runtime.selectgo",
	"runtime.lock", "runtime.unlock", "runtime.notesleep", "runtime.notewakeup",
	"runtime.runqget", "runtime.runqput", "runtime.runqsteal", "runtime.runqgrab",
	"runtime.stealWork", "runtime.wakep", "runtime.startm", "runtime.stopm",
	"runtime.execute", "runtime.casgstatus", "runtime.resetspinning",
	"runtime.checkTimers", "runtime.semacquire", "runtime.semrelease",
	"runtime.futexsleep", "runtime.futexwakeup", "runtime.goexit",
	"runtime._System", "runtime._ExternalCode", "runtime.sysmon",
	"runtime.exitsyscall", "runtime.entersyscall", "runtime.reentersyscall",
	"runtime.readyWithTime", "runtime.goschedImpl", "runtime.send",
	"runtime.recv", "runtime.closechan", "runtime.netpollblock",
	"runtime.timer", "runtime.(*timer", "runtime.(*timers",
	"runtime.sellock", "runtime.selunlock", "runtime.mPark",
	"runtime.handoffp", "runtime.acquirep", "runtime.releasep",
	"runtime.pidle", "runtime.injectglist", "runtime.gfget", "runtime.gfput",
	"runtime.newproc", "runtime.goexit0", "runtime.gdestroy",
	"sync.runtime_Semacquire", "sync.runtime_Semrelease",
	"internal/sync.runtime_Semacquire", "sync.(*Mutex).lockSlow",
	"sync.(*Mutex).unlockSlow", "internal/sync.(*Mutex).lockSlow",
	"internal/sync.(*Mutex).unlockSlow",
}

func isSchedFrame(fn string) bool {
	for _, s := range schedFrames {
		if strings.HasPrefix(fn, s) {
			return true
		}
	}
	return false
}

// decodeProfile returns each sample's stack of function names (leaf
// first, inlined frames expanded) and its CPU nanoseconds.
func decodeProfile(gz []byte) ([][]string, []int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		strs    []string
		smps    []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnNames = map[uint64]int64{}    // function id -> string index
	)
	err = eachField(raw, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(n, wt int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, wt, v, b)
				case 2:
					for _, x := range appendPacked(nil, wt, v, b) {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			})
			smps = append(smps, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, wt int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(n, wt int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(n, wt int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	stacks := make([][]string, len(smps))
	weights := make([]int64, len(smps))
	for i, s := range smps {
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if si := fnNames[f]; si >= 0 && int(si) < len(strs) {
					stacks[i] = append(stacks[i], strs[si])
				}
			}
		}
		// CPU profiles carry [samples/count, cpu/nanoseconds].
		if len(s.vals) > 0 {
			weights[i] = s.vals[len(s.vals)-1]
		}
	}
	return stacks, weights, nil
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, handing each field's number,
// wire type, varint value or length-delimited bytes to fn.
func eachField(b []byte, fn func(num, wt int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wt {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, wt, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either packed or
// one-per-field encoding.
func appendPacked(dst []uint64, wt int, v uint64, b []byte) []uint64 {
	if wt == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}
