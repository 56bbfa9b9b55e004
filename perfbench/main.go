// Command perfbench is the repository's benchmark: four workloads — the
// live netv3 stack cached and missing, a mirrored TPC-C over vvault, and
// the paper simulation — each run in one process against in-process
// servers, with outputs checked and every metric printed by name and
// unit. NOTES.md describes the workloads, the metrics and the layer
// each one measures.
//
//	bash perfbench/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the gated end-to-end set, with --trace 1 the per-layer
// set. The exit code is non-zero when any correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/v3storage/v3/internal/netv3"
)

// opts are one run's settings.
type opts struct {
	seed    int64
	seconds time.Duration // each measured window
	trace   bool
	workdir string // temp files live here, inside the checkout
	// warmup is the fixed, untimed warm-up after set-up.
	warmup time.Duration
	// wrapStore, when set, wraps every live server's store: the tests use
	// it to inject faults the correctness checks must catch.
	wrapStore func(netv3.BlockStore) netv3.BlockStore
}

// result is one workload run's outcome.
type result struct {
	problems  []string // failed correctness checks
	attempted int64
	failed    int64
	vals      values
}

func (r *result) problemf(format string, args ...any) {
	// A handful of messages say what went wrong; the count says how often.
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	} else if len(r.problems) == 8 {
		r.problems = append(r.problems, "further failures suppressed")
	}
}

func (r *result) correct() bool { return len(r.problems) == 0 }

// workloads maps each name to its runner.
var workloads = map[string]func(opts) (*result, error){
	"hot-read":    runHotRead,
	"miss-mixed":  runMissMixed,
	"tpcc-mirror": runTPCCMirror,
	"sim-tpcc":    runSimTPCC,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Set-up is repeated at least setupMinReps times and for at least
// setupMinTime, so that a cheap set-up is timed often enough for its
// median to be steady.
const (
	setupMinReps = 7
	setupMinTime = time.Second
)

// timeSetups sets up repeatedly, tearing down every stack but the last,
// and returns that stack with the median set-up time in seconds.
func timeSetups[E any](setup func() (E, error), teardown func(E)) (E, float64, error) {
	var times []float64
	var e E
	start := time.Now()
	for len(times) < setupMinReps || time.Since(start) < setupMinTime {
		if len(times) > 0 {
			teardown(e)
			runtime.GC() // keep torn-down stacks out of the next timing
		}
		t0 := time.Now()
		var err error
		if e, err = setup(); err != nil {
			return e, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return e, median(times), nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name, or all: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "length of each measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: add a traced window and report per-layer metrics")
	workdir := fs.String("workdir", ".bench_build/work", "directory for temporary store files")
	commit := fs.String("commit", "unknown", "source revision, recorded with the run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames()
	} else if workloads[*workload] == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s, or all)\n",
			*workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	o := opts{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		workdir: *workdir, warmup: time.Second,
	}
	fmt.Fprintf(stdout, "# perfbench seed=%d seconds=%d trace=%d nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		o.seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *commit)

	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: true, Metrics: map[string]jsonMetric{}}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, name := range names {
		st0 := readCPUStat()
		res, err := workloads[name](o)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		res.vals.set("host.steal_pct", stealPct(st0, readCPUStat()))
		res.vals.set("fail_ratio", ratio(float64(res.failed), float64(res.attempted)))
		res.vals.report(stdout, name)
		for _, p := range res.problems {
			fmt.Fprintf(stdout, "# %s check failed: %s\n", name, p)
		}
		out.Correct = out.Correct && res.correct()
		out.Attempted += res.attempted
		out.Failed += res.failed
		for k, m := range res.vals.pick(defs) {
			if len(names) > 1 {
				k = name + "/" + k
			}
			out.Metrics[k] = m
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		fmt.Fprintln(stderr, "perfbench: correctness check failed")
		return 1
	}
	return 0
}
