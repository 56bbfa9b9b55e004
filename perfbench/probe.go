package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"time"

	"github.com/v3storage/v3/internal/bufpool"
	"github.com/v3storage/v3/internal/netv3"
	"github.com/v3storage/v3/internal/obs"
)

// probe brackets a traced window: host counters, the servers' exported
// counters, the registry histograms the program already keeps, and a
// CPU profile. Everything is read at public boundaries; no code in the
// program under test changes for it.
type probe struct {
	reg          *obs.Registry // nil when the window has no netv3 stack
	srvs         []*netv3.Server
	host0, host1 hostSnap
	srv0, srv1   srvSnap
	h0, h1       map[string]obs.HistSnapshot
	prof         bytes.Buffer
}

// stageLayers name the merged nine-column client stage trace
// (netv3.MergedStageDefs order) as netv3.stage.<name>_ns.
var stageLayers = []string{
	"submit", "wire_write", "srv_sched", "srv_cpu", "srv_diskq",
	"srv_device", "net", "delivery", "wakeup",
}

// Server and disk-queue histograms the per-layer means come from.
const (
	histDispatch  = "netv3_srv_dispatch_ns"
	histQueueWait = "netv3_srv_sched_fg_wait_ns"
	histDiskRead  = "netv3_srv_disk_read_ns"
	histDiskWrite = "netv3_srv_disk_write_ns"
	histDQBatch   = "diskq_submit_batch"
)

func probeHists() []string {
	names := []string{histDispatch, histQueueWait, histDiskRead, histDiskWrite, histDQBatch}
	for _, d := range netv3.MergedStageDefs() {
		names = append(names, d.Metric)
	}
	return names
}

// srvSnap sums the servers' counters.
type srvSnap struct {
	hits, misses int64
	disk         netv3.DiskStats
	pool         bufpool.Stats
	sheds        int64
}

func snapServers(srvs []*netv3.Server) srvSnap {
	var s srvSnap
	for _, srv := range srvs {
		h, m := srv.CacheStats()
		s.hits += h
		s.misses += m
		d := srv.DiskStats()
		s.disk.DestageRuns += d.DestageRuns
		s.disk.DestagedBlocks += d.DestagedBlocks
		s.disk.WriteThroughFallbacks += d.WriteThroughFallbacks
		s.disk.DiskQReads += d.DiskQReads
		s.disk.DiskQWrites += d.DiskQWrites
		s.disk.DiskQBatches += d.DiskQBatches
		s.disk.DiskQFallbacks += d.DiskQFallbacks
		s.disk.DiskQRetries += d.DiskQRetries
		p := srv.PoolStats()
		s.pool.Gets += p.Gets
		s.pool.Allocs += p.Allocs
		s.sheds += srv.SchedStats().Shed
	}
	return s
}

func snapHists(reg *obs.Registry) map[string]obs.HistSnapshot {
	out := make(map[string]obs.HistSnapshot)
	if reg == nil {
		return out
	}
	for _, n := range probeHists() {
		out[n] = reg.Hist(n).Snapshot()
	}
	return out
}

// deltaMean is the mean of the observations recorded between two
// snapshots of one histogram (exact: sum over count).
func deltaMean(a, b obs.HistSnapshot) float64 {
	n := b.Count() - a.Count()
	if n <= 0 {
		return 0
	}
	return float64(b.Sum-a.Sum) / float64(n)
}

func startProbe(reg *obs.Registry, srvs []*netv3.Server) (*probe, error) {
	p := &probe{reg: reg, srvs: srvs}
	p.host0 = snapHost()
	p.srv0 = snapServers(srvs)
	p.h0 = snapHists(reg)
	if err := pprof.StartCPUProfile(&p.prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the window.
func (p *probe) stop() {
	pprof.StopCPUProfile()
	p.host1 = snapHost()
	p.srv1 = snapServers(p.srvs)
	p.h1 = snapHists(p.reg)
}

// report sets the per-layer metrics that come from the program's own
// counters: ops is the operations the workload completed in the window
// and userBytes the bytes it wrote. It returns the window's CPU time
// and the nine stage means' sum, which the caller checks against its
// own measured latency.
func (p *probe) report(v values, ops, userBytes int64) (cpu time.Duration, stageSum float64, err error) {
	h1, s1, hs1 := p.host1, p.srv1, p.h1
	cpu = h1.cpu - p.host0.cpu
	fops := float64(ops)

	v.set("sys.read_calls_per_op", ratio(float64(h1.io.syscr-p.host0.io.syscr), fops))
	v.set("sys.write_calls_per_op", ratio(float64(h1.io.syscw-p.host0.io.syscw), fops))
	v.set("sys.ctx_switches_per_op", ratio(float64(h1.ctx-p.host0.ctx), fops))
	v.set("device.write_bytes_per_user_byte", ratio(float64(h1.io.writeBytes-p.host0.io.writeBytes), float64(userBytes)))
	m0, m1 := &p.host0.mem, &h1.mem
	v.set("gc.cycles", float64(m1.NumGC-m0.NumGC))
	v.set("gc.pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)

	s0 := p.srv0
	hits, misses := float64(s1.hits-s0.hits), float64(s1.misses-s0.misses)
	v.set("server.cache_hit_ratio", ratio(hits, hits+misses))
	v.set("sched.sheds", float64(s1.sheds-s0.sheds))
	v.set("diskq.reads_per_miss", ratio(float64(s1.disk.DiskQReads-s0.disk.DiskQReads), misses))
	v.set("diskq.batches", float64(s1.disk.DiskQBatches-s0.disk.DiskQBatches))
	v.set("diskq.fallbacks", float64(s1.disk.DiskQFallbacks-s0.disk.DiskQFallbacks))
	v.set("diskq.retries", float64(s1.disk.DiskQRetries-s0.disk.DiskQRetries))
	v.set("destage.blocks_per_run", ratio(float64(s1.disk.DestagedBlocks-s0.disk.DestagedBlocks),
		float64(s1.disk.DestageRuns-s0.disk.DestageRuns)))
	v.set("destage.writethrough_fallbacks", float64(s1.disk.WriteThroughFallbacks-s0.disk.WriteThroughFallbacks))
	v.set("bufpool.alloc_ratio", ratio(float64(s1.pool.Allocs-s0.pool.Allocs), float64(s1.pool.Gets-s0.pool.Gets)))

	if p.reg != nil {
		mean := func(n string) float64 { return deltaMean(p.h0[n], hs1[n]) }
		v.set("server.dispatch_ns", mean(histDispatch))
		v.set("server.queue_wait_ns", mean(histQueueWait))
		v.set("server.disk_read_ns", mean(histDiskRead))
		v.set("server.disk_write_ns", mean(histDiskWrite))
		v.set("diskq.ops_per_batch", mean(histDQBatch))
		for i, d := range netv3.MergedStageDefs() {
			m := mean(d.Metric)
			v.set("netv3.stage."+stageLayers[i]+"_ns", m)
			stageSum += m
		}
	}

	shares, err := cpuShares(p.prof.Bytes())
	if err != nil {
		return cpu, stageSum, err
	}
	for k, x := range shares {
		v.set("cpu_share."+k, x)
	}
	return cpu, stageSum, nil
}
