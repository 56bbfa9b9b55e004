package netv3

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/v3storage/v3/internal/benchjson"
	"github.com/v3storage/v3/internal/obs"
	"github.com/v3storage/v3/internal/wire"
)

// Benchmark results are collected here and, when the BENCH_JSON
// environment variable names a file, written out by TestMain so the
// repo's perf trajectory is machine-readable across PRs (`make bench`).
// The writer merges by name — same-name rows are replaced keeping the
// newest, others survive — so full sweeps and targeted runs (`make
// bench-disk`, `make bench-mux`) compose in any order.
type benchRecord = benchjson.Record

var (
	benchMu      sync.Mutex
	benchRecords []benchRecord
)

func record(r benchRecord) {
	benchMu.Lock()
	benchRecords = append(benchRecords, r)
	benchMu.Unlock()
}

func TestMain(m *testing.M) {
	code := m.Run()
	if path := os.Getenv("BENCH_JSON"); path != "" {
		_ = benchjson.Write(path, benchRecords)
	}
	os.Exit(code)
}

// ablationConfig names one point in the optimization space.
type ablationConfig struct {
	name    string
	noPool  bool
	noBatch bool
	shards  int // 0 = default, 1 = unsharded
}

var ablations = []ablationConfig{
	{name: "all-on"},
	{name: "no-pool", noPool: true},
	{name: "no-batch", noBatch: true},
	{name: "no-shard", shards: 1},
	{name: "all-off", noPool: true, noBatch: true, shards: 1},
}

// benchPair starts a server+client for one benchmark run.
func benchPair(b *testing.B, ac ablationConfig, cacheBlocks int) (*Server, *Client) {
	b.Helper()
	cfg := DefaultServerConfig()
	cfg.CacheBlocks = cacheBlocks
	cfg.CacheShards = ac.shards
	cfg.NoPool = ac.noPool
	cfg.NoBatch = ac.noBatch
	srv := NewServer(cfg)
	srv.AddVolume(1, NewMemStore(64<<20))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve()
	b.Cleanup(func() { srv.Close() })
	ccfg := DefaultClientConfig()
	ccfg.NoBatch = ac.noBatch
	c, err := Dial(addr.String(), ccfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return srv, c
}

// pipelineReads keeps `outstanding` reads in flight for b.N total ops and
// returns wall-clock elapsed plus allocation deltas per op.
func pipelineReads(b *testing.B, c *Client, size, outstanding int) (elapsed time.Duration, bytesPerOp, allocsPerOp float64) {
	b.Helper()
	const region = 32 << 20
	bufs := make([][]byte, outstanding)
	for i := range bufs {
		bufs[i] = make([]byte, size)
	}
	handles := make([]*Pending, outstanding)
	var ms1, ms2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	b.ResetTimer()
	t0 := time.Now()
	for n := 0; n < b.N; n++ {
		s := n % outstanding
		if handles[s] != nil {
			if err := handles[s].Wait(); err != nil {
				b.Fatal(err)
			}
		}
		off := int64(n*size) % (region - int64(size))
		h, err := c.ReadAsync(1, off, bufs[s])
		if err != nil {
			b.Fatal(err)
		}
		handles[s] = h
	}
	for _, h := range handles {
		if h != nil {
			if err := h.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	}
	elapsed = time.Since(t0)
	b.StopTimer()
	runtime.ReadMemStats(&ms2)
	bytesPerOp = float64(ms2.TotalAlloc-ms1.TotalAlloc) / float64(b.N)
	allocsPerOp = float64(ms2.Mallocs-ms1.Mallocs) / float64(b.N)
	return elapsed, bytesPerOp, allocsPerOp
}

// BenchmarkNetv3Throughput sweeps request size × outstanding I/Os on the
// fully optimized path, the TCP counterpart of the paper's cached
// throughput microbenchmark (Figure 6).
func BenchmarkNetv3Throughput(b *testing.B) {
	for _, size := range []int{4096, 8192, 65536} {
		for _, outstanding := range []int{1, 16} {
			name := fmt.Sprintf("size=%d/outstanding=%d", size, outstanding)
			b.Run(name, func(b *testing.B) {
				_, c := benchPair(b, ablations[0], 4096)
				elapsed, bpo, apo := pipelineReads(b, c, size, outstanding)
				ops := float64(b.N) / elapsed.Seconds()
				mbs := ops * float64(size) / 1e6
				b.ReportMetric(ops, "ops/s")
				b.ReportMetric(mbs, "MB/s")
				b.ReportMetric(bpo, "alloc-B/op")
				record(benchRecord{
					Name: "Netv3Throughput/" + name, OpsPerSec: ops, MBPerSec: mbs,
					BytesPerOp: bpo, AllocsPerOp: apo,
				})
			})
		}
	}
}

// BenchmarkNetv3Latency measures single-outstanding (synchronous)
// round-trip time, the Figure 3 analogue.
func BenchmarkNetv3Latency(b *testing.B) {
	for _, size := range []int{512, 8192} {
		name := fmt.Sprintf("size=%d", size)
		b.Run(name, func(b *testing.B) {
			_, c := benchPair(b, ablations[0], 4096)
			buf := make([]byte, size)
			b.ResetTimer()
			t0 := time.Now()
			for n := 0; n < b.N; n++ {
				if err := c.Read(1, int64(n*size)%(16<<20), buf); err != nil {
					b.Fatal(err)
				}
			}
			elapsed := time.Since(t0)
			mean := elapsed.Seconds() / float64(b.N) * 1e6
			b.ReportMetric(mean, "µs/op")
			record(benchRecord{Name: "Netv3Latency/" + name, MeanMicros: mean})
		})
	}
}

// BenchmarkNetv3Ablation toggles each optimization individually at
// 8 KB × 16 outstanding — the per-optimization accounting the paper does
// in Figures 9/12. "all-off" is the seed-equivalent baseline: fresh
// allocations per request, one flush and one read syscall per frame, and
// a single cache lock.
//
// The disk-* variants measure the pipelined disk path against a
// file-backed store with an artificial per-I/O latency, so the toggles
// (write-behind, prefetch) move actual disk time, not just CPU:
// disk-sync has neither, disk-writebehind adds destaging, disk-all adds
// read-ahead too. The disk-seq pair isolates sequential read-ahead.
func BenchmarkNetv3Ablation(b *testing.B) {
	for _, ac := range ablations {
		b.Run(ac.name, func(b *testing.B) {
			_, c := benchPair(b, ac, 4096)
			elapsed, bpo, apo := pipelineReads(b, c, 8192, 16)
			ops := float64(b.N) / elapsed.Seconds()
			b.ReportMetric(ops, "ops/s")
			b.ReportMetric(bpo, "alloc-B/op")
			b.ReportMetric(apo, "allocs/op")
			record(benchRecord{
				Name: "Netv3Ablation/" + ac.name + "/8192x16", OpsPerSec: ops,
				MBPerSec: ops * 8192 / 1e6, BytesPerOp: bpo, AllocsPerOp: apo,
			})
		})
	}
	for _, dc := range diskAblations {
		b.Run(dc.name, func(b *testing.B) {
			c := benchDiskPair(b, dc)
			elapsed := pipelineMixed(b, c, 8192, 16)
			ops := float64(b.N) / elapsed.Seconds()
			b.ReportMetric(ops, "ops/s")
			record(benchRecord{
				Name: "Netv3Ablation/" + dc.name + "/8192x16mixed", OpsPerSec: ops,
				MBPerSec: ops * 8192 / 1e6,
			})
		})
	}
	for _, dc := range []diskAblationConfig{
		{name: "disk-seq-noprefetch", noWB: true, noPF: true},
		{name: "disk-seq-prefetch", noWB: true},
	} {
		b.Run(dc.name, func(b *testing.B) {
			c := benchDiskPair(b, dc)
			buf := make([]byte, 8192)
			b.ResetTimer()
			t0 := time.Now()
			for n := 0; n < b.N; n++ {
				off := int64(n%(diskBenchRegion/8192)) * 8192
				if err := c.Read(1, off, buf); err != nil {
					b.Fatal(err)
				}
			}
			elapsed := time.Since(t0)
			ops := float64(b.N) / elapsed.Seconds()
			b.ReportMetric(ops, "ops/s")
			record(benchRecord{
				Name: "Netv3Ablation/" + dc.name + "/8192seq", OpsPerSec: ops,
				MBPerSec: ops * 8192 / 1e6,
			})
		})
	}
}

// BenchmarkNetv3Obs is the observability ablation: the standard
// 8 KB × 16 pipelined read workload with the full metrics stack enabled
// (client stage trace + server histograms and gauges) against the
// nil-registry fast path. The acceptance bar for the obs layer is that
// "on" stays within 3% ops/s of "off".
func BenchmarkNetv3Obs(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultServerConfig()
			cfg.CacheBlocks = 4096
			ccfg := DefaultClientConfig()
			if on {
				cfg.Metrics = obs.New()
				ccfg.Metrics = obs.New()
			}
			srv := NewServer(cfg)
			srv.AddVolume(1, NewMemStore(64<<20))
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve()
			b.Cleanup(func() { srv.Close() })
			c, err := Dial(addr.String(), ccfg)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { c.Close() })
			elapsed, bpo, _ := pipelineReads(b, c, 8192, 16)
			ops := float64(b.N) / elapsed.Seconds()
			b.ReportMetric(ops, "ops/s")
			b.ReportMetric(bpo, "alloc-B/op")
			record(benchRecord{
				Name: "Netv3Obs/" + name + "/8192x16", OpsPerSec: ops,
				MBPerSec: ops * 8192 / 1e6, BytesPerOp: bpo,
			})
		})
	}
}

// BenchmarkNetv3TraceObs is the cross-tier tracing ablation: the
// standard 8 KB × 16 pipelined read workload with the full metrics stack
// on BOTH arms, toggling only what this PR added — the 1-in-4 trace
// sampling with server span fill plus an always-on flight recorder ring
// on the server — against NoTrace on both sides with no ring. The
// acceptance bar is that "on" stays within 3% ops/s of "off": the
// recorder is meant to run in production, not only during incidents.
func BenchmarkNetv3TraceObs(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultServerConfig()
			cfg.CacheBlocks = 4096
			cfg.Metrics = obs.New()
			ccfg := DefaultClientConfig()
			ccfg.Metrics = obs.New()
			if on {
				cfg.Flight = obs.NewFlight(0, 0)
			} else {
				cfg.NoTrace = true
				ccfg.NoTrace = true
			}
			srv := NewServer(cfg)
			srv.AddVolume(1, NewMemStore(64<<20))
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve()
			b.Cleanup(func() { srv.Close() })
			c, err := Dial(addr.String(), ccfg)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { c.Close() })
			elapsed, bpo, _ := pipelineReads(b, c, 8192, 16)
			ops := float64(b.N) / elapsed.Seconds()
			b.ReportMetric(ops, "ops/s")
			b.ReportMetric(bpo, "alloc-B/op")
			record(benchRecord{
				Name: "Netv3TraceObs/" + name + "/8192x16", OpsPerSec: ops,
				MBPerSec: ops * 8192 / 1e6, BytesPerOp: bpo,
			})
		})
	}
}

// slowStore wraps a BlockStore with a fixed per-I/O latency, standing in
// for a disk so the pipelined-path benchmarks measure overlap of real
// wait time rather than memcpy speed.
type slowStore struct {
	BlockStore
	delay time.Duration
}

func (s *slowStore) ReadAt(b []byte, off int64) error {
	time.Sleep(s.delay)
	return s.BlockStore.ReadAt(b, off)
}

func (s *slowStore) WriteAt(b []byte, off int64) error {
	time.Sleep(s.delay)
	return s.BlockStore.WriteAt(b, off)
}

type diskAblationConfig struct {
	name    string
	noWB    bool
	noPF    bool
	sqdepth int
}

var diskAblations = []diskAblationConfig{
	{name: "disk-sync", noWB: true, noPF: true},
	{name: "disk-writebehind", noPF: true},
	{name: "disk-all"},
}

// diskBenchRegion is the working set of the disk-path benchmarks: 32 MB,
// four times the 1024-block (8 MB) cache, so demand reads keep missing.
const diskBenchRegion = 32 << 20

// diskBenchDelay is the injected per-I/O store latency, in the ballpark
// of a short-stroked disk or networked flash access.
const diskBenchDelay = 150 * time.Microsecond

func benchDiskPair(b *testing.B, dc diskAblationConfig) *Client {
	b.Helper()
	cfg := DefaultServerConfig()
	cfg.CacheBlocks = 1024
	cfg.NoWriteBehind = dc.noWB
	cfg.NoPrefetch = dc.noPF
	cfg.SQDepth = dc.sqdepth
	cfg.DestageInterval = 2 * time.Millisecond
	fs, err := NewFileStore(filepath.Join(b.TempDir(), "vol.img"), diskBenchRegion)
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(cfg)
	srv.AddVolume(1, &slowStore{BlockStore: fs, delay: diskBenchDelay})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve()
	b.Cleanup(func() { srv.Close(); fs.Close() })
	c, err := Dial(addr.String(), DefaultClientConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

// pipelineMixed keeps `outstanding` mixed requests in flight: odd ops
// are strided reads across the front half of the region (cycling through
// twice the cache capacity, so most of them miss), even ops are
// sequential writes into the back half (the coalescing-friendly pattern
// of a database log). A Flush at the end makes every variant pay its
// full destage bill inside the measured window.
func pipelineMixed(b *testing.B, c *Client, size, outstanding int) time.Duration {
	b.Helper()
	const half = diskBenchRegion / 2
	blocks := half / size
	bufs := make([][]byte, outstanding)
	for i := range bufs {
		bufs[i] = make([]byte, size)
	}
	data := make([]byte, size)
	handles := make([]*Pending, outstanding)
	b.ResetTimer()
	t0 := time.Now()
	for n := 0; n < b.N; n++ {
		s := n % outstanding
		if handles[s] != nil {
			if err := handles[s].Wait(); err != nil {
				b.Fatal(err)
			}
		}
		var h *Pending
		var err error
		if n%2 == 0 {
			off := int64(half) + int64(n/2%blocks)*int64(size)
			h, err = c.WriteAsync(1, off, data)
		} else {
			off := int64((n * 13) % blocks * size)
			h, err = c.ReadAsync(1, off, bufs[s])
		}
		if err != nil {
			b.Fatal(err)
		}
		handles[s] = h
	}
	for _, h := range handles {
		if h != nil {
			if err := h.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := c.Flush(1); err != nil {
		b.Fatal(err)
	}
	elapsed := time.Since(t0)
	b.StopTimer()
	return elapsed
}

// BenchmarkNetv3DiskQ sweeps the disk queue's submission depth under the
// mixed pipelined workload over the slow store, at two client pipeline
// depths — the disk-path analogue of the paper's outstanding-descriptor
// scaling. Destage runs and orphan drains go down as one concurrent
// vectored batch per pass, and the prefetcher's strided read-ahead
// windows (armed only at depth >= 2*maxPrefetchBlocks) ride the same
// ring, so deeper queues let write-back and speculative I/O overlap the
// demand misses the scheduler workers serve.
func BenchmarkNetv3DiskQ(b *testing.B) {
	for _, outstanding := range []int{16, 64} {
		for _, dc := range []diskAblationConfig{
			{name: "diskq-d8", sqdepth: 8},
			{name: "diskq-d32", sqdepth: 32},
			{name: "diskq-d64", sqdepth: 64},
			{name: "diskq-d128", sqdepth: 128},
			{name: "diskq-d256", sqdepth: 256},
		} {
			name := fmt.Sprintf("%s/8192x%dmixed", dc.name, outstanding)
			b.Run(name, func(b *testing.B) {
				c := benchDiskPair(b, dc)
				elapsed := pipelineMixed(b, c, 8192, outstanding)
				ops := float64(b.N) / elapsed.Seconds()
				b.ReportMetric(ops, "ops/s")
				record(benchRecord{
					Name: "Netv3DiskQ/" + name, OpsPerSec: ops,
					MBPerSec: ops * 8192 / 1e6,
				})
			})
		}
	}
}

// BenchmarkNetv3ServerReadPath isolates the server-side cache-hit read
// path — frame decode, dispatch, cache lookup, response framing onto the
// session's respWriter — without the client or the socket, for a precise
// allocation account. "all-on" runs the production path (reused decode
// struct, pooled body, reused response, scratch frame, async completion
// queue); "all-off" runs the seed's costs (fresh Unmarshal, make([]byte)
// body, Marshal frame, two direct writes per response).
func BenchmarkNetv3ServerReadPath(b *testing.B) {
	for _, ac := range []ablationConfig{ablations[0], ablations[len(ablations)-1]} {
		b.Run(ac.name, func(b *testing.B) {
			const blocks = 4096
			cfg := DefaultServerConfig()
			cfg.CacheBlocks = blocks
			cfg.CacheShards = ac.shards
			cfg.NoPool = ac.noPool
			cfg.NoBatch = ac.noBatch
			cfg.NoPrefetch = true // measure the hit path, not read-ahead
			s := NewServer(cfg)
			defer s.Close()
			if err := s.AddVolume(1, NewMemStore(64<<20)); err != nil {
				b.Fatal(err)
			}
			v := s.lookup(1)
			warm := make([]byte, 8192)
			for blk := int64(0); blk < blocks; blk++ {
				if err := v.cachedRead(warm, blk*8192); err != nil {
					b.Fatal(err)
				}
			}
			w := newRespWriter(io.Discard, ac.noPool)
			if !ac.noBatch {
				w.startAsync(func() {})
				defer w.stopAsync()
			}
			ss := s.newSession(nil)
			req := &wire.Read{Header: wire.Header{Seq: 1}, ReqID: 1, Volume: 1, Length: 8192}
			frame := wire.Marshal(req)
			var m wire.Read
			var ms1, ms2 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms1)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				r := &m
				if ac.noPool {
					mi, err := wire.Unmarshal(frame)
					if err != nil {
						b.Fatal(err)
					}
					r = mi.(*wire.Read)
				} else if err := wire.UnmarshalInto(frame, r); err != nil {
					b.Fatal(err)
				}
				r.Offset = uint64(n%blocks) * 8192
				s.dispatchRead(r, w, ss, 0)
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms2)
			bpo := float64(ms2.TotalAlloc-ms1.TotalAlloc) / float64(b.N)
			apo := float64(ms2.Mallocs-ms1.Mallocs) / float64(b.N)
			b.ReportMetric(bpo, "alloc-B/op")
			b.ReportMetric(apo, "allocs/op")
			record(benchRecord{
				Name: "Netv3ServerReadPath/" + ac.name, BytesPerOp: bpo, AllocsPerOp: apo,
			})
		})
	}
}

// BenchmarkNetv3WriteThroughput covers the submission direction (client
// batching + server staging-buffer pooling).
func BenchmarkNetv3WriteThroughput(b *testing.B) {
	const size, outstanding = 8192, 16
	_, c := benchPair(b, ablations[0], 0)
	data := make([]byte, size)
	handles := make([]*Pending, outstanding)
	b.ResetTimer()
	t0 := time.Now()
	for n := 0; n < b.N; n++ {
		s := n % outstanding
		if handles[s] != nil {
			if err := handles[s].Wait(); err != nil {
				b.Fatal(err)
			}
		}
		h, err := c.WriteAsync(1, int64(n*size)%(32<<20), data)
		if err != nil {
			b.Fatal(err)
		}
		handles[s] = h
	}
	for _, h := range handles {
		if h != nil {
			if err := h.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	}
	elapsed := time.Since(t0)
	ops := float64(b.N) / elapsed.Seconds()
	b.ReportMetric(ops, "ops/s")
	b.ReportMetric(ops*size/1e6, "MB/s")
	record(benchRecord{Name: "Netv3WriteThroughput/8192x16", OpsPerSec: ops, MBPerSec: ops * size / 1e6})
}
