package main

import (
	"time"

	"github.com/v3storage/v3/internal/bench"
	"github.com/v3storage/v3/internal/core"
)

// sim-tpcc: the paper-figure simulation, cDSA with every optimisation on
// the mid-size platform, 2 s warm-up and 2 s measured in virtual time.
// One operation is one simulated physical I/O of the measured window.

func simOnce(dur bench.OLTPDurations) bench.OLTPResult {
	return bench.RunTPCCDSA(bench.MidSizeSetup(), core.CDSA, core.AllOpts(), dur)
}

// simRun is one timed simulation.
type simRun struct {
	r     bench.OLTPResult
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
}

func timedSim() simRun {
	t0, c0, a0 := time.Now(), cpuTime(), allocated()
	r := simOnce(bench.QuickDurations())
	return simRun{r: r, wall: time.Since(t0), cpu: cpuTime() - c0, alloc: allocated() - a0}
}

func simOps(r bench.OLTPResult) int64 { return r.PhysReads + r.PhysWrites }

func checkSim(r bench.OLTPResult, res *result) {
	if r.TpmC <= 0 || r.PhysReads <= 0 {
		res.problemf("sim-tpcc: tpmC %.0f, %d physical reads; both must be positive", r.TpmC, r.PhysReads)
	}
}

func runSimTPCC(o opts) (*result, error) {
	res := &result{vals: values{}}
	// Set-up is building the simulated platform and starting its engine:
	// a run with empty windows.
	_, setup, _ := timeSetups(
		func() (struct{}, error) { simOnce(bench.OLTPDurations{}); return struct{}{}, nil },
		func(struct{}) {})
	res.vals.set("setup_s", setup)

	// The simulated window is fixed, so the run repeats it while the
	// next repetition still fits in o.seconds; at least once.
	var runs []simRun
	start := time.Now()
	for len(runs) == 0 || time.Since(start)+runs[len(runs)-1].wall <= o.seconds {
		runs = append(runs, timedSim())
	}
	var walls []float64
	var ops int64
	var wall, cpu time.Duration
	var alloc uint64
	for _, s := range runs {
		checkSim(s.r, res)
		walls = append(walls, s.wall.Seconds())
		ops += simOps(s.r)
		wall += s.wall
		cpu += s.cpu
		alloc += s.alloc
	}
	res.attempted = ops
	cpuPerOp := ratio(float64(cpu)/1e3, float64(ops))
	res.vals.set("sim_s", median(walls))
	res.vals.set("ops_per_s", ratio(float64(ops), wall.Seconds()))
	res.vals.set("cpu_us_per_op", cpuPerOp)
	res.vals.set("alloc_bytes_per_op", ratio(float64(alloc), float64(ops)))
	last := runs[len(runs)-1].r
	res.vals.set("sim.tpmC", last.TpmC)
	res.vals.set("sim.phys_reads", float64(last.PhysReads))
	res.vals.set("sim.interrupts", float64(last.Interrupts))

	// Peak memory of the untraced run; the traced stack comes after.
	res.vals.set("peak_rss_mb", peakRSSMB())
	if o.trace {
		p, err := startProbe(nil, nil)
		if err != nil {
			return nil, err
		}
		s := timedSim()
		p.stop()
		checkSim(s.r, res)
		cpu, _, err := p.report(res.vals, simOps(s.r), 0)
		if err != nil {
			return nil, err
		}
		res.vals.set("trace_overhead_pct", 100*ratio(float64(cpu)/1e3/float64(simOps(s.r))-cpuPerOp, cpuPerOp))
	}
	return res, nil
}
