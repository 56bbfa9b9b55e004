package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/v3storage/v3/internal/netv3"
	"github.com/v3storage/v3/internal/obs"
)

// liveSpec shapes one block-I/O workload against a single netv3 server.
type liveSpec struct {
	name        string
	blocks      int64 // working set in 8 KB blocks, all preloaded
	cacheBlocks int   // server cache size in blocks
	writePct    int   // share of operations that are writes
	workers     int   // closed-loop clients, one outstanding I/O each
}

// hot-read: 16 MB over a 32 MB cache, so every read hits after warm-up.
var hotRead = liveSpec{name: "hot-read", blocks: 2048, cacheBlocks: 4096, workers: 16}

// miss-mixed: 256 MB over the same 32 MB cache, 70/30 read/write.
var missMixed = liveSpec{name: "miss-mixed", blocks: 32768, cacheBlocks: 4096, writePct: 30, workers: 16}

func runHotRead(o opts) (*result, error)   { return runLive(hotRead, o) }
func runMissMixed(o opts) (*result, error) { return runLive(missMixed, o) }

// liveEnv is one set-up stack: a preloaded store file, a server with the
// ROADMAP's single dispatch shape, and one client connection.
type liveEnv struct {
	dir    string
	path   string
	store  *netv3.FileStore
	srv    *netv3.Server
	served chan error
	cl     *netv3.Client
	reg    *obs.Registry // nil on untraced stacks
}

// liveState is the run's correctness oracle: per block, the newest
// version issued and the newest acknowledged.
type liveState struct {
	spec   liveSpec
	st     *stamper
	issued []atomic.Uint64
	acked  []atomic.Uint64
}

func newLiveState(spec liveSpec, st *stamper) *liveState {
	return &liveState{
		spec:   spec,
		st:     st,
		issued: make([]atomic.Uint64, spec.blocks),
		acked:  make([]atomic.Uint64, spec.blocks),
	}
}

func setupLive(spec liveSpec, o opts, st *stamper, traced bool) (*liveEnv, error) {
	dir, err := os.MkdirTemp(o.workdir, spec.name+"-")
	if err != nil {
		return nil, err
	}
	e := &liveEnv{dir: dir, path: filepath.Join(dir, "vol"), served: make(chan error, 1)}
	if err := preload(e.path, spec.blocks, st); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if e.store, err = netv3.NewFileStore(e.path, spec.blocks*blockSize); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	var bs netv3.BlockStore = e.store
	if o.wrapStore != nil {
		bs = o.wrapStore(bs)
	}
	if traced {
		e.reg = obs.New()
	}
	cfg := netv3.DefaultServerConfig()
	cfg.CacheBlocks = spec.cacheBlocks
	cfg.SchedWorkers = runtime.GOMAXPROCS(0)
	cfg.DiskQ = true
	cfg.Metrics = e.reg
	e.srv = netv3.NewServer(cfg)
	e.srv.AddVolume(1, bs)
	addr, err := e.srv.Listen("127.0.0.1:0")
	if err != nil {
		e.srv.Close()
		e.store.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	go func() { e.served <- e.srv.Serve() }()
	ccfg := netv3.DefaultClientConfig()
	ccfg.Metrics = e.reg
	if e.cl, err = netv3.Dial(addr.String(), ccfg); err != nil {
		e.close()
		os.RemoveAll(dir)
		return nil, err
	}
	return e, nil
}

// preload writes version 0 of every block and syncs it, so the measured
// window starts with no dirty page-cache backlog.
func preload(path string, blocks int64, st *stamper) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	const chunk = 128 // blocks per write
	buf := make([]byte, chunk*blockSize)
	for b := int64(0); b < blocks; b += chunk {
		n := min(chunk, blocks-b)
		for i := int64(0); i < n; i++ {
			st.fill(buf[i*blockSize:(i+1)*blockSize], b+i, 0)
		}
		if _, err := f.WriteAt(buf[:n*blockSize], b*blockSize); err != nil {
			f.Close()
			return fmt.Errorf("preload: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("preload: %w", err)
	}
	return f.Close()
}

// close tears the stack down and waits for the server's accept loop.
// The store file stays until the caller removes e.dir.
func (e *liveEnv) close() {
	if e.cl != nil {
		e.cl.Close()
	}
	e.srv.Close()
	if err := <-e.served; err != nil && !errors.Is(err, net.ErrClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: server:", err)
	}
	e.store.Close()
}

// windowStats is what the workers of one window produced.
type windowStats struct {
	reads, writes    samples
	submitNS, waitNS int64 // summed, traced windows only
	attempted        int64
	failed           int64
	// Per one-second slice of the window: completed ops per second and
	// process CPU per op in µs. ops_per_s and cpu_us_per_op are their
	// medians, so a burst of host noise inside a run moves them less
	// than a mean would.
	sliceRates, sliceCPU []float64

	done atomic.Int64 // completed ops, read by the slice sampler
}

func (w *windowStats) ops() int64 { return int64(len(w.reads) + len(w.writes)) }

// window runs the closed loop for d: each worker issues one I/O, waits
// for it, checks it, and issues the next. phase keeps the generators of
// successive windows apart while staying a function of the seed.
func (ls *liveState) window(e *liveEnv, o opts, res *result, d time.Duration, phase int64, traced bool) *windowStats {
	var stop atomic.Bool
	per := make([]windowStats, ls.spec.workers)
	var mu sync.Mutex // guards res.problemf
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < ls.spec.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ls.worker(e, o, w, phase, traced, &stop, &per[w], func(format string, args ...any) {
				mu.Lock()
				res.problemf(format, args...)
				mu.Unlock()
			})
		}(w)
	}
	// Sample the op counters and process CPU once a second.
	prevOps, prevCPU, prevAt := int64(0), cpuTime(), t0
	var rates, cpus []float64
	for i := time.Duration(1); i*time.Second <= d; i++ {
		time.Sleep(time.Until(t0.Add(i * time.Second)))
		var n int64
		for w := range per {
			n += per[w].done.Load()
		}
		c, at := cpuTime(), time.Now()
		rates = append(rates, float64(n-prevOps)/at.Sub(prevAt).Seconds())
		cpus = append(cpus, ratio(float64(c-prevCPU)/1e3, float64(n-prevOps)))
		prevOps, prevCPU, prevAt = n, c, at
	}
	time.Sleep(time.Until(t0.Add(d)))
	stop.Store(true)
	wg.Wait()
	out := &windowStats{sliceRates: rates, sliceCPU: cpus}
	for i := range per {
		out.reads = append(out.reads, per[i].reads...)
		out.writes = append(out.writes, per[i].writes...)
		out.submitNS += per[i].submitNS
		out.waitNS += per[i].waitNS
		out.attempted += per[i].attempted
		out.failed += per[i].failed
	}
	return out
}

func (ls *liveState) worker(e *liveEnv, o opts, w int, phase int64, traced bool,
	stop *atomic.Bool, ws *windowStats, problemf func(string, ...any)) {
	spec := ls.spec
	rng := rand.New(rand.NewSource(o.seed*1_000_003 + phase*7919 + int64(w)))
	buf := make([]byte, blockSize)
	owned := spec.blocks / int64(spec.workers)
	for !stop.Load() {
		write := spec.writePct > 0 && rng.Intn(100) < spec.writePct
		var b int64
		var v, lo uint64
		if write {
			// Each block has one writer, so a block's versions are
			// acknowledged in the order they were issued.
			b = rng.Int63n(owned)*int64(spec.workers) + int64(w)
			v = ls.issued[b].Load() + 1
			ls.issued[b].Store(v)
			ls.st.fill(buf, b, v)
		} else {
			b = rng.Int63n(spec.blocks)
			lo = ls.acked[b].Load()
		}
		ws.attempted++
		t0 := now()
		var p *netv3.Pending
		var err error
		if write {
			p, err = e.cl.WriteAsync(1, b*blockSize, buf)
		} else {
			p, err = e.cl.ReadAsync(1, b*blockSize, buf)
		}
		t1 := now()
		if err == nil {
			err = p.Wait()
		}
		t2 := now()
		if err != nil {
			ws.failed++
			continue
		}
		ws.done.Add(1)
		if traced {
			ws.submitNS += t1 - t0
			ws.waitNS += t2 - t1
		}
		if write {
			ls.acked[b].Store(v)
			ws.writes = append(ws.writes, t2-t0)
			continue
		}
		ws.reads = append(ws.reads, t2-t0)
		got, cerr := ls.st.check(buf, b)
		if hi := ls.issued[b].Load(); cerr == nil && (got < lo || got > hi) {
			cerr = fmt.Errorf("block %d: read version %d, want %d..%d", b, got, lo, hi)
		}
		if cerr != nil {
			problemf("%s read: %v", spec.name, cerr)
		}
	}
}

// fillCache reads every block once, sequentially per worker, so a
// working set that fits the cache is resident before timing starts.
func (ls *liveState) fillCache(e *liveEnv, res *result) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < ls.spec.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, blockSize)
			for b := int64(w); b < ls.spec.blocks; b += int64(ls.spec.workers) {
				err := e.cl.Read(1, b*blockSize, buf)
				if err == nil {
					_, err = ls.st.check(buf, b)
				}
				if err != nil {
					mu.Lock()
					res.problemf("%s cache fill: %v", ls.spec.name, err)
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
}

// verifyFile checks, after the final Flush and shutdown, that the store
// file holds exactly the last acknowledged version of every block.
func (ls *liveState) verifyFile(path string, res *result) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, blockSize)
	for b := int64(0); b < ls.spec.blocks; b++ {
		if _, err := f.ReadAt(buf, b*blockSize); err != nil {
			return fmt.Errorf("read-back: %w", err)
		}
		got, err := ls.st.check(buf, b)
		if want := ls.acked[b].Load(); err == nil && got != want {
			err = fmt.Errorf("block %d: holds version %d, last acknowledged %d", b, got, want)
		}
		if err != nil {
			res.problemf("%s read-back: %v", ls.spec.name, err)
		}
	}
	return nil
}

func runLive(spec liveSpec, o opts) (*result, error) {
	res := &result{vals: values{}}
	ls := newLiveState(spec, newStamper(o.seed))

	e, setup, err := timeSetups(
		func() (*liveEnv, error) { return setupLive(spec, o, ls.st, false) },
		func(e *liveEnv) { e.close(); os.RemoveAll(e.dir) })
	if err != nil {
		return nil, err
	}
	res.vals.set("setup_s", setup)

	if spec.writePct == 0 {
		ls.fillCache(e, res)
	}
	ls.window(e, o, res, o.warmup, 0, false)
	runtime.GC() // start every measured window at the same point of the GC cycle
	c0, a0 := cpuTime(), allocated()
	ws := ls.window(e, o, res, o.seconds, 1, false)
	c1, a1 := cpuTime(), allocated()
	res.attempted, res.failed = ws.attempted, ws.failed
	ops := ws.ops()
	cpuPerOp := ratio(float64(c1-c0)/1e3, float64(ops))
	res.vals.set("alloc_bytes_per_op", ratio(float64(a1-a0), float64(ops)))
	res.vals.set("ops_per_s", median(ws.sliceRates))
	res.vals.set("cpu_us_per_op", median(ws.sliceCPU))
	reads, writes := ws.reads.sorted(), ws.writes.sorted()
	res.vals.set("read_p50_us", reads.pct(50)/1e3)
	res.vals.set("read_p99_us", reads.pct(99)/1e3)
	res.vals.set("read_p999_us", reads.pct(99.9)/1e3)
	res.vals.set("write_p50_us", writes.pct(50)/1e3)
	res.vals.set("write_p99_us", writes.pct(99)/1e3)
	res.vals.set("write_p999_us", writes.pct(99.9)/1e3)

	if err := ls.finish(e, res); err != nil {
		return nil, err
	}
	// Peak memory of the untraced run; the traced stack comes after.
	res.vals.set("peak_rss_mb", peakRSSMB())
	if o.trace {
		if err := ls.traced(o, res, cpuPerOp); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// finish flushes (untimed), shuts the stack down and, where the
// workload writes, checks the file against the acknowledged versions.
func (ls *liveState) finish(e *liveEnv, res *result) error {
	defer os.RemoveAll(e.dir)
	if err := e.cl.Flush(1); err != nil {
		res.problemf("%s final flush: %v", ls.spec.name, err)
	}
	e.close()
	if ls.spec.writePct == 0 {
		return nil
	}
	return ls.verifyFile(e.path, res)
}

// traced repeats the run on a fresh, instrumented stack and reports the
// per-layer metrics; untracedCPU is the untraced window's CPU per op.
func (prev *liveState) traced(o opts, res *result, untracedCPU float64) error {
	ls := newLiveState(prev.spec, prev.st) // the fresh store holds version 0
	e, err := setupLive(ls.spec, o, ls.st, true)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	if ls.spec.writePct == 0 {
		ls.fillCache(e, res)
	}
	ls.window(e, o, res, o.warmup, 2, false)
	p, err := startProbe(e.reg, []*netv3.Server{e.srv})
	if err != nil {
		e.close()
		os.RemoveAll(e.dir)
		return err
	}
	ws := ls.window(e, o, res, o.seconds, 3, true)
	ops := ws.ops()
	p.stop()
	cpu, stageSum, err := p.report(res.vals, ops, int64(len(ws.writes))*blockSize)
	if ferr := ls.finish(e, res); err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	v := res.vals
	v.set("netv3.submit_ns", ratio(float64(ws.submitNS), float64(ops)))
	v.set("netv3.wait_ns", ratio(float64(ws.waitNS), float64(ops)))
	measured := append(ws.reads, ws.writes...).mean()
	v.set("netv3.stage_residual_pct", 100*ratio(stageSum-measured, measured))
	v.set("trace_overhead_pct", 100*ratio(float64(cpu)/1e3/float64(ops)-untracedCPU, untracedCPU))
	return nil
}
