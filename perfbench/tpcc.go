package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/v3storage/v3/internal/netv3"
	"github.com/v3storage/v3/internal/obs"
	"github.com/v3storage/v3/internal/vvault"
	"github.com/v3storage/v3/internal/workload"
)

// tpcc-mirror: the workload engine's TPC-C mix, 2 warehouses (32 MB of
// data plus a 4 MB log), 8 closed-loop terminals with no think time, a
// 512-page engine buffer pool and 2 ms group commit, over a 2-way
// vvault mirror of two servers with 16 MB caches each.
const (
	tpccWarehouses  = 2
	tpccTerminals   = 8
	tpccPoolPages   = 512
	tpccCacheBlocks = 2048
	tpccLogSlots    = 64 // 64 KB each: the engine's default 4 MB log
	tpccVolBytes    = tpccLogSlots*64<<10 + tpccWarehouses*workload.PagesPerWarehouse*8192
)

// span is one timed PageStore call, in benchmark-clock nanoseconds.
type span struct{ start, dur int64 }

// timedStore wraps the vault's PageStore and times every call from
// outside: the read batches, page writes and Flush barriers.
type timedStore struct {
	workload.PageStore
	mu                     sync.Mutex
	reads, writes, flushes []span
	writeBytes             []int64 // per write, index-aligned with writes
}

func (t *timedStore) note(list *[]span, t0 int64) {
	d := now() - t0
	t.mu.Lock()
	*list = append(*list, span{t0, d})
	t.mu.Unlock()
}

func (t *timedStore) ReadPages(offs []int64, bufs [][]byte) error {
	t0 := now()
	err := t.PageStore.ReadPages(offs, bufs)
	t.note(&t.reads, t0)
	return err
}

func (t *timedStore) WritePage(off int64, data []byte) error {
	t0 := now()
	err := t.PageStore.WritePage(off, data)
	d := now() - t0
	t.mu.Lock()
	t.writes = append(t.writes, span{t0, d})
	t.writeBytes = append(t.writeBytes, int64(len(data)))
	t.mu.Unlock()
	return err
}

func (t *timedStore) Flush() error {
	t0 := now()
	err := t.PageStore.Flush()
	t.note(&t.flushes, t0)
	return err
}

// within returns the latencies of calls that started and ended inside
// [from, to), plus their summed time.
func within(list []span, from, to int64) (samples, int64) {
	var out samples
	var busy int64
	for _, s := range list {
		if s.start >= from && s.start+s.dur < to {
			out = append(out, s.dur)
			busy += s.dur
		}
	}
	return out, busy
}

// tpccEnv is one set-up stack: two file-backed servers, the mirror
// vault over them, the timed store and the engine.
type tpccEnv struct {
	dir    string
	paths  []string
	stores []*netv3.FileStore
	srvs   []*netv3.Server
	served []chan error
	vault  *vvault.Vault
	ts     *timedStore
	eng    *workload.Engine
	reg    *obs.Registry // nil on untraced stacks
	engReg *obs.Registry // the engine's own commit histograms
}

func setupTPCC(o opts, traced bool) (*tpccEnv, error) {
	dir, err := os.MkdirTemp(o.workdir, "tpcc-mirror-")
	if err != nil {
		return nil, err
	}
	e := &tpccEnv{dir: dir, engReg: obs.New()}
	if traced {
		e.reg = obs.New()
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		path := filepath.Join(dir, fmt.Sprintf("replica%d", i))
		st, err := netv3.NewFileStore(path, tpccVolBytes)
		if err != nil {
			e.close()
			return nil, err
		}
		cfg := netv3.DefaultServerConfig()
		cfg.CacheBlocks = tpccCacheBlocks
		cfg.SchedWorkers = runtime.GOMAXPROCS(0)
		cfg.DiskQ = true
		cfg.Metrics = e.reg
		srv := netv3.NewServer(cfg)
		srv.AddVolume(1, st)
		e.paths = append(e.paths, path)
		e.stores = append(e.stores, st)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			srv.Close()
			e.close()
			return nil, err
		}
		served := make(chan error, 1)
		go func() { served <- srv.Serve() }()
		e.srvs = append(e.srvs, srv)
		e.served = append(e.served, served)
		addrs = append(addrs, addr.String())
	}
	vcfg := vvault.DefaultConfig(vvault.ModeMirror)
	vcfg.MemberSize = tpccVolBytes
	vcfg.Client.Metrics = e.reg
	vcfg.Metrics = e.reg
	if e.vault, err = vvault.Open(addrs, vcfg); err != nil {
		e.close()
		return nil, err
	}
	e.ts = &timedStore{PageStore: workload.NewVaultStore(e.vault, nil)}
	e.eng, err = workload.New(workload.Config{
		Store:           e.ts,
		Kinds:           workload.TPCCKinds(),
		Terminals:       tpccTerminals,
		Warehouses:      tpccWarehouses,
		BufferPoolPages: tpccPoolPages,
		GroupCommit:     2 * time.Millisecond,
		LogSlots:        tpccLogSlots,
		Seed:            o.seed,
		Metrics:         e.engReg,
	})
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// close shuts the vault and servers down and waits for their accept
// loops; the replica files stay until the caller removes e.dir.
func (e *tpccEnv) close() {
	if e.vault != nil {
		e.vault.Close()
	}
	for i, srv := range e.srvs {
		srv.Close()
		if err := <-e.served[i]; err != nil && !errors.Is(err, net.ErrClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: server:", err)
		}
	}
	for _, st := range e.stores {
		st.Close()
	}
}

// tpccWindow is what one engine run measured from outside.
type tpccWindow struct {
	res        *workload.Result
	cpu        time.Duration
	alloc      uint64 // heap bytes allocated in the window
	from, to   int64  // measurement window on the benchmark clock
	probe      *probe
	lag        uint64 // max replication watermark lag seen (traced)
	log0, log1 uint64 // replication log head at window start and end
	deg0, deg1 int64  // degraded operations at window start and end
	fallback0  int64
	// Per one-second slice: committed tx per second and CPU per tx (µs).
	sliceRates, sliceCPU []float64
}

// committedSoFar reads the engine's commit count from the latency
// histograms it keeps for every run (exposing them on a registry adds
// no work on the transaction path).
func (e *tpccEnv) committedSoFar() int64 {
	var n int64
	for _, k := range workload.TPCCKinds() {
		n += e.engReg.Hist(fmt.Sprintf("workload_tx_ns{kind=%q}", k.Name)).Snapshot().Count()
	}
	return n
}

// run drives the engine: o.warmup untimed, then o.seconds measured. A
// sampler goroutine brackets the measured window with CPU readings,
// takes one-second slices of commits and CPU, and, when traced, runs
// the probe and samples the replication log.
func (e *tpccEnv) run(o opts, traced bool) (*tpccWindow, error) {
	w := &tpccWindow{}
	errc := make(chan error, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(o.warmup)
		t0 := time.Now()
		w.from = now()
		c0, a0 := cpuTime(), allocated()
		if traced {
			var err error
			if w.probe, err = startProbe(e.reg, e.srvs); err != nil {
				errc <- err
				return
			}
			w.log0 = e.vault.LogStatus().Head
			w.fallback0 = e.vault.LogStatus().Fallbacks
			s := e.vault.Stats()
			w.deg0 = s.DegradedReads + s.DegradedWrites
		}
		prevTx, prevCPU, prevAt := e.committedSoFar(), c0, t0
		for i := time.Duration(1); i*time.Second <= o.seconds; i++ {
			next := t0.Add(i * time.Second)
			for time.Now().Before(next) {
				if traced {
					w.lag = max(w.lag, e.watermarkLag())
				}
				time.Sleep(min(50*time.Millisecond, time.Until(next)))
			}
			tx, c, at := e.committedSoFar(), cpuTime(), time.Now()
			w.sliceRates = append(w.sliceRates, float64(tx-prevTx)/at.Sub(prevAt).Seconds())
			w.sliceCPU = append(w.sliceCPU, ratio(float64(c-prevCPU)/1e3, float64(tx-prevTx)))
			prevTx, prevCPU, prevAt = tx, c, at
		}
		time.Sleep(time.Until(t0.Add(o.seconds)))
		if traced {
			w.probe.stop()
			w.log1 = e.vault.LogStatus().Head
			s := e.vault.Stats()
			w.deg1 = s.DegradedReads + s.DegradedWrites
		}
		w.cpu, w.alloc = cpuTime()-c0, allocated()-a0
		w.to = now()
	}()
	res, err := e.eng.Run(o.warmup, o.seconds)
	<-done
	select {
	case perr := <-errc:
		return nil, perr
	default:
	}
	if err != nil {
		return nil, err
	}
	w.res = res
	return w, nil
}

// watermarkLag is the largest distance, in log records, between the
// log head and a replica's flush watermark.
func (e *tpccEnv) watermarkLag() uint64 {
	head := e.vault.LogStatus().Head
	var lag uint64
	for _, b := range e.vault.Status() {
		if head > b.LogWatermark {
			lag = max(lag, head-b.LogWatermark)
		}
	}
	return lag
}

// finish flushes and closes the stack, then checks that the replicas
// are byte-identical.
func (e *tpccEnv) finish(res *result) error {
	defer os.RemoveAll(e.dir)
	if err := e.vault.Flush(); err != nil {
		res.problemf("tpcc-mirror final flush: %v", err)
	}
	e.close()
	same, err := sameFiles(e.paths[0], e.paths[1])
	if err != nil {
		return err
	}
	if !same {
		res.problemf("tpcc-mirror: replica files differ after flush and close")
	}
	return nil
}

func sameFiles(a, b string) (bool, error) {
	fa, err := os.Open(a)
	if err != nil {
		return false, err
	}
	defer fa.Close()
	fb, err := os.Open(b)
	if err != nil {
		return false, err
	}
	defer fb.Close()
	ba, bb := make([]byte, 1<<20), make([]byte, 1<<20)
	for {
		na, ea := io.ReadFull(fa, ba)
		nb, eb := io.ReadFull(fb, bb)
		if na != nb || !bytes.Equal(ba[:na], bb[:nb]) {
			return false, nil
		}
		if ea == io.EOF || ea == io.ErrUnexpectedEOF {
			return eb == ea, nil
		}
		if ea != nil {
			return false, ea
		}
		if eb != nil {
			return false, eb
		}
	}
}

// committed is the number of transactions committed in the window.
func committed(r *workload.Result) int64 {
	var n int64
	for _, k := range r.Kinds {
		n += k.Count
	}
	return n
}

func checkTPCC(r *workload.Result, res *result) {
	if r.Errors != 0 || r.Overflows != 0 {
		res.problemf("tpcc-mirror: %d errors, %d overflows", r.Errors, r.Overflows)
	}
	if r.TpmC <= 0 {
		res.problemf("tpcc-mirror: no New-Order committed")
	}
}

func runTPCCMirror(o opts) (*result, error) {
	res := &result{vals: values{}}
	e, setup, err := timeSetups(
		func() (*tpccEnv, error) { return setupTPCC(o, false) },
		func(e *tpccEnv) { e.close(); os.RemoveAll(e.dir) })
	if err != nil {
		return nil, err
	}
	res.vals.set("setup_s", setup)

	runtime.GC() // start every run at the same point of the GC cycle
	w, err := e.run(o, false)
	if err != nil {
		e.close()
		os.RemoveAll(e.dir)
		return nil, err
	}
	r := w.res
	checkTPCC(r, res)
	tx := committed(r)
	res.attempted = tx + r.Errors + r.Overflows
	res.failed = r.Errors + r.Overflows
	cpuPerTx := ratio(float64(w.cpu)/1e3, float64(tx)) // µs
	res.vals.set("ops_per_s", median(w.sliceRates))
	res.vals.set("cpu_us_per_op", median(w.sliceCPU))
	res.vals.set("tx_per_s", r.TxPerSec)
	res.vals.set("tpmC", r.TpmC)
	res.vals.set("cpu_ms_per_tx", cpuPerTx/1e3)
	res.vals.set("alloc_bytes_per_op", ratio(float64(w.alloc), float64(tx)))
	e.ts.mu.Lock()
	for _, c := range []struct {
		name string
		list []span
	}{{"page_read", e.ts.reads}, {"page_write", e.ts.writes}, {"commit", e.ts.flushes}} {
		s, _ := within(c.list, w.from, w.to)
		s = s.sorted()
		res.vals.set(c.name+"_p50_us", s.pct(50)/1e3)
		res.vals.set(c.name+"_p99_us", s.pct(99)/1e3)
		res.vals.set(c.name+"_p999_us", s.pct(99.9)/1e3)
	}
	e.ts.mu.Unlock()
	if err := e.finish(res); err != nil {
		return nil, err
	}

	// Peak memory of the untraced run; the traced stack comes after.
	res.vals.set("peak_rss_mb", peakRSSMB())
	if o.trace {
		if err := tracedTPCC(o, res, cpuPerTx); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// tracedTPCC reruns the workload on a fresh, instrumented stack and
// reports the vault, repl, workload and netv3 layers.
func tracedTPCC(o opts, res *result, untracedCPU float64) error {
	e, err := setupTPCC(o, true)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	w, err := e.run(o, true)
	if err != nil {
		e.close()
		os.RemoveAll(e.dir)
		return err
	}
	r := w.res
	checkTPCC(r, res)
	tx := committed(r)
	v := res.vals

	e.ts.mu.Lock()
	reads, readBusy := within(e.ts.reads, w.from, w.to)
	writes, writeBusy := within(e.ts.writes, w.from, w.to)
	flushes, flushBusy := within(e.ts.flushes, w.from, w.to)
	var userBytes int64
	for i, s := range e.ts.writes {
		if s.start >= w.from && s.start+s.dur < w.to {
			userBytes += e.ts.writeBytes[i]
		}
	}
	e.ts.mu.Unlock()
	v.set("vvault.read_batch_p99_us", reads.sorted().pct(99)/1e3)
	v.set("vvault.write_p99_us", writes.sorted().pct(99)/1e3)
	v.set("vvault.flush_p99_us", flushes.sorted().pct(99)/1e3)
	v.set("vvault.degraded_ops", float64(w.deg1-w.deg0))

	ls := e.vault.LogStatus()
	v.set("repl.appends_per_write", ratio(float64(w.log1-w.log0), float64(len(writes))))
	v.set("repl.log_depth", float64(ls.Records))
	v.set("repl.fallbacks", float64(ls.Fallbacks-w.fallback0))
	v.set("repl.watermark_lag", float64(w.lag))

	secs := float64(w.to-w.from) / 1e9
	v.set("workload.pool_hit_ratio", r.HitRatio())
	v.set("workload.phys_reads_per_tx", ratio(float64(r.PhysReads), float64(tx)))
	v.set("workload.phys_writes_per_tx", ratio(float64(r.PhysWrites), float64(tx)))
	v.set("workload.log_flushes_per_s", ratio(float64(r.LogFlushes), secs))
	v.set("workload.store_share", ratio(float64(readBusy+writeBusy+flushBusy)/1e9, tpccTerminals*secs))
	v.set("workload.errors", float64(r.Errors))
	v.set("workload.overflows", float64(r.Overflows))

	cpu, _, perr := w.probe.report(v, tx, userBytes)
	if ferr := e.finish(res); perr == nil {
		perr = ferr
	}
	if perr != nil {
		return perr
	}
	v.set("trace_overhead_pct", 100*ratio(float64(cpu)/1e3/float64(tx)-untracedCPU, untracedCPU))
	return nil
}
