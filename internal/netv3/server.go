package netv3

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/v3storage/v3/internal/bufpool"
	"github.com/v3storage/v3/internal/flow"
	"github.com/v3storage/v3/internal/obs"
	"github.com/v3storage/v3/internal/wire"
)

// ServerConfig sizes a netv3 server.
//
// Every server runs one dispatch shape. Each session loop answers cache
// hits, write-behind absorbs and control frames inline; everything else
// (cache misses, uncached I/O, writes over the dirty high-watermark,
// Flush) runs synchronously on the shared scheduler's workers. Every
// volume has a batched disk queue that carries its destage batches,
// prefetch windows and Flush fsync. The toggles below are ablations of
// that shape, not alternative shapes.
type ServerConfig struct {
	// Credits is the flow-control window granted per session: the number
	// of staging buffer slots, each MaxXfer bytes.
	Credits int
	// MaxXfer bounds a single transfer.
	MaxXfer uint32
	// CacheBlocks enables a server-side MQ read cache of 8 KB blocks per
	// volume (0 disables).
	CacheBlocks int
	// CacheShards is the number of independently locked cache shards per
	// volume (rounded up to a power of two). 0 selects the default (16);
	// 1 yields a single-lock cache, the ablation baseline.
	CacheShards int
	// NoPool disables payload buffer pooling (ablation: every request
	// allocates fresh buffers, the pre-optimization behavior).
	NoPool bool
	// NoBatch disables the per-session async completion writer (ablation:
	// every response is written to the socket directly, frame then body,
	// as two unbuffered writes).
	NoBatch bool
	// Deprecated: every volume has a disk queue; this field is ignored.
	DiskQ bool
	// SQDepth bounds the in-flight operations of each volume's disk queue
	// (internal/diskq: io_uring on Linux file stores, a goroutine pool
	// otherwise). 0 selects 64.
	SQDepth int
	// NoWriteBehind disables write-behind destaging (ablation): writes go
	// to the store before they are acknowledged, as in the seed. Only
	// meaningful when CacheBlocks > 0, since dirty blocks live in the
	// cache.
	NoWriteBehind bool
	// NoPrefetch disables sequential read-ahead (ablation). Only
	// meaningful when CacheBlocks > 0.
	NoPrefetch bool
	// DirtyHighWater caps uncommitted write-behind blocks per volume;
	// writes beyond it fall back to write-through until the destager
	// catches up. 0 selects CacheBlocks/2.
	DirtyHighWater int
	// DestageInterval is the background destage period. 0 selects 5ms.
	DestageInterval time.Duration
	// SchedWorkers sizes the shared request scheduler: a bounded pool of
	// workers draining per-tenant weighted queues in two QoS lanes
	// (foreground client I/O, background destage/prefetch/utility), with
	// admission control shedding foreground work past AdmitLimit. 0
	// selects GOMAXPROCS; see sched.go.
	SchedWorkers int
	// AdmitLimit caps queued foreground scheduler tasks; beyond it requests
	// are refused with StatusEOverloaded plus a retry-after hint instead of
	// queueing without bound. 0 selects SchedWorkers*256.
	AdmitLimit int
	// MaxStreams caps logical streams per connection (the wire protocol's
	// session-multiplexing layer). 0 selects 65535, the field's ceiling.
	MaxStreams int
	// Metrics, when non-nil, enables server-side instrumentation on this
	// registry: dispatch/scheduler-wait/destage/flush/prefetch latency
	// histograms plus gauge exports of the served/cache/pool/disk
	// counters. Nil is the disabled fast path.
	Metrics *obs.Registry
	// NoTrace stops the server from negotiating FeatureTrace, so traced
	// clients get zero span blocks back — the ablation off-arm and the
	// stand-in for a pre-trace server binary.
	NoTrace bool
	// Flight, when non-nil, is the always-on flight recorder: dispatches,
	// sheds, destage and prefetch passes and flushes record fixed-size
	// events into its ring, and admission-control sheds auto-capture an
	// incident dump. Nil no-ops every site.
	Flight *obs.Flight
	// Logger receives connection-level errors; nil silences them.
	Logger *log.Logger
}

// DefaultServerConfig returns sensible defaults: 64 slots of 1 MB.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{Credits: 64, MaxXfer: 1 << 20}
}

const cacheBlockSize = 8192

// sockBufSize sizes the session's bufio reader and the client's batching
// writer. On the client it doubles as the frame-batching byte threshold:
// a pending batch is pushed to the kernel when it reaches this size even
// if requests are still being produced.
const sockBufSize = 64 << 10

// readBufSize returns the session read-buffer size: the full batching
// buffer normally, a single control frame when batching is ablated — so
// the NoBatch baseline consumes inbound frames one syscall at a time,
// like the unbatched path it stands in for.
func readBufSize(noBatch bool) int {
	if noBatch {
		return wire.ControlSize
	}
	return sockBufSize
}

// srvStream is the server-side record of one open logical stream: its QoS
// class and scheduler weight, as announced by StreamOpen. Owned by the
// session goroutine.
type srvStream struct {
	class  uint8
	weight int
}

// srvSession is one connection's dispatch state. The session goroutine
// owns streams and pf; tasks and done let a reconnecting successor
// fence the session (see Server.fence).
type srvSession struct {
	s       *Server
	id      uint64 // SessionID: the high half of the session's tenant keys
	conn    net.Conn
	streams map[uint32]*srvStream // open logical streams; stream 0 is implicit
	pf      prefetcher            // sequential-read detector

	tasks sync.WaitGroup // requests handed to the scheduler, not yet finished
	done  chan struct{}  // closed once the loop has exited and tasks drained
}

func (s *Server) newSession(conn net.Conn) *srvSession {
	return &srvSession{s: s, id: s.nextSess.Add(1), conn: conn,
		streams: make(map[uint32]*srvStream), done: make(chan struct{})}
}

// tenant resolves a frame's stream id to its scheduler coordinates,
// implicitly opening unknown streams as foreground (a data frame can
// legitimately precede its re-announced StreamOpen after a client
// reconnect).
func (ss *srvSession) tenant(stream uint32) (key uint64, bg bool, weight int) {
	weight = 1
	if st := ss.streams[stream]; st != nil {
		bg = st.class == wire.ClassBackground
		if st.weight > 0 {
			weight = st.weight
		}
	} else if stream != 0 {
		ss.streams[stream] = &srvStream{class: wire.ClassForeground}
		ss.s.streamsActive.Add(1)
		ss.s.streamsTotal.Add(1)
	}
	return tenantKey(ss.id, stream), bg, weight
}

// volume is one exported store with its disk queue, its optional sharded
// block cache, and the cache's write-behind and read-ahead engines (each
// nil when its toggle is off).
type volume struct {
	store BlockStore
	dq    *diskQueue // batched submission/completion store I/O
	cache *blockCache
	wb    *destager       // cache + write-behind: dirty-block destaging
	pf    *prefetchWorker // cache + prefetch: sequential read-ahead
}

// Server exports volumes over TCP.
type Server struct {
	cfg    ServerConfig
	pool   *bufpool.Pool // nil when cfg.NoPool: Get/Put degrade to make/no-op
	om     *serverObs    // nil when cfg.Metrics is unset
	flight *obs.Flight   // nil when cfg.Flight is unset; every Record no-ops
	sched  *sched        // shared request scheduler; Close shuts it last

	// volumes is a copy-on-write map: lookups on the request hot path are
	// a single atomic load, with no lock shared across sessions. addMu
	// serializes the (rare) writers.
	volumes atomic.Pointer[map[uint32]*volume]
	addMu   sync.Mutex

	ln       net.Listener
	sessions atomic.Int64
	served   atomic.Int64
	nextSess atomic.Uint64
	closed   atomic.Bool
	done     chan struct{} // closed by Close; stops background goroutines

	// Live (not cumulative) session and stream population, plus the
	// cumulative stream count — the gauges behind v3d -stats and the
	// netv3_srv_{sessions,streams}_active metrics.
	sessActive    atomic.Int64
	streamsActive atomic.Int64
	streamsTotal  atomic.Int64

	// connMu/conns track live session sockets so Close can sever them;
	// without this a closed server would keep serving established
	// sessions and peers would never observe the shutdown.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// fences maps the ClientID of each FeatureFence client to its live
	// session (see fence).
	fenceMu sync.Mutex
	fences  map[uint64]*srvSession
}

// NewServer returns a server with no volumes; add them with AddVolume.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Credits <= 0 {
		cfg.Credits = 64
	}
	if cfg.MaxXfer == 0 {
		cfg.MaxXfer = 1 << 20
	}
	if cfg.MaxStreams <= 0 || cfg.MaxStreams > int(^uint16(0)) {
		cfg.MaxStreams = int(^uint16(0))
	}
	if cfg.SchedWorkers <= 0 {
		cfg.SchedWorkers = runtime.GOMAXPROCS(0)
	}
	s := &Server{cfg: cfg, done: make(chan struct{}), conns: make(map[net.Conn]struct{}),
		fences: make(map[uint64]*srvSession)}
	s.flight = cfg.Flight
	s.flight.SetKindNames(flightKindNames)
	if !cfg.NoPool {
		s.pool = bufpool.New()
	}
	s.volumes.Store(&map[uint32]*volume{})
	s.om = newServerObs(cfg.Metrics, s)
	s.sched = newSched(s, cfg.SchedWorkers, cfg.AdmitLimit)
	return s
}

// AddVolume exports store under the given volume ID. It fails, adding
// nothing, when the server is closed or the volume's disk queue cannot
// open.
func (s *Server) AddVolume(id uint32, store BlockStore) error {
	s.addMu.Lock()
	defer s.addMu.Unlock()
	if s.closed.Load() {
		return net.ErrClosed
	}
	v := &volume{store: store}
	dq, err := newDiskQueue(s, v)
	if err != nil {
		return fmt.Errorf("netv3: vol %d disk queue: %w", id, err)
	}
	v.dq = dq
	if s.cfg.CacheBlocks > 0 {
		v.cache = newBlockCache(s.cfg.CacheBlocks, s.cfg.CacheShards, s.pool)
		if !s.cfg.NoWriteBehind {
			v.wb = newDestager(s, v)
			go v.wb.run(s.done)
		}
		if !s.cfg.NoPrefetch {
			v.pf = newPrefetchWorker(v)
			go v.pf.run(s, s.done)
		}
	}
	old := *s.volumes.Load()
	next := make(map[uint32]*volume, len(old)+1)
	for k, ov := range old {
		next[k] = ov
	}
	next[id] = v
	s.volumes.Store(&next)
	return nil
}

// lookup resolves a volume ID lock-free.
func (s *Server) lookup(id uint32) *volume {
	return (*s.volumes.Load())[id]
}

// VolumeSize returns the size of volume id, or 0 if absent.
func (s *Server) VolumeSize(id uint32) int64 {
	if v := s.lookup(id); v != nil {
		return v.store.Size()
	}
	return 0
}

// Served returns the number of requests completed.
func (s *Server) Served() int64 { return s.served.Load() }

// Sessions returns the number of sessions accepted.
func (s *Server) Sessions() int64 { return s.sessions.Load() }

// SessionsActive returns the number of sessions currently established.
func (s *Server) SessionsActive() int64 { return s.sessActive.Load() }

// StreamsActive returns the number of logical streams currently open
// across all sessions.
func (s *Server) StreamsActive() int64 { return s.streamsActive.Load() }

// StreamsTotal returns the cumulative number of logical streams opened.
func (s *Server) StreamsTotal() int64 { return s.streamsTotal.Load() }

// CacheStats returns aggregate (hits, misses) across volumes.
func (s *Server) CacheStats() (hits, misses int64) {
	for _, v := range *s.volumes.Load() {
		if v.cache != nil {
			h, m := v.cache.stats()
			hits += h
			misses += m
		}
	}
	return hits, misses
}

// PoolStats returns buffer-pool counters (zero when pooling is off).
func (s *Server) PoolStats() bufpool.Stats { return s.pool.Stats() }

// Listen binds addr and returns the bound address (use ":0" for an
// ephemeral port).
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	return ln.Addr(), nil
}

// ListenOn adopts an existing listener instead of binding a fresh
// socket — the hook that lets a fault injector (internal/faultnet)
// interpose on every session a test server accepts. Call Serve after.
func (s *Server) ListenOn(ln net.Listener) {
	s.ln = ln
}

// Serve accepts sessions until Close. Call after Listen.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		s.connMu.Lock()
		if s.closed.Load() {
			s.connMu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.sessions.Add(1)
		go s.session(conn)
	}
}

// ListenAndServe combines Listen and Serve on addr.
func (s *Server) ListenAndServe(addr string) error {
	if _, err := s.Listen(addr); err != nil {
		return err
	}
	return s.Serve()
}

// Close stops accepting, stops each volume's background goroutines,
// severs every live session, closes the listener, and drains the
// scheduler. Per volume the order matters: the destager and prefetcher
// finish first (their final passes may still submit to the disk queue),
// then the queue itself closes, draining every in-flight completion
// before the dispatcher exits.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(s.done)
	// An AddVolume holding addMu finishes before this snapshot; a later
	// one sees closed and adds nothing.
	s.addMu.Lock()
	vols := *s.volumes.Load()
	s.addMu.Unlock()
	for _, v := range vols {
		if v.wb != nil {
			<-v.wb.stopped
		}
		if v.pf != nil {
			<-v.pf.stopped
		}
		v.dq.close()
	}
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.connMu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.conns = make(map[net.Conn]struct{})
	s.connMu.Unlock()
	// The scheduler closes last: by this point the destagers/prefetchers
	// (its background producers) have stopped and the conns are severed, so
	// the drain is short. A session still decoding frames it buffered
	// before its socket was severed sees tryEnqueue refuse; it answers the
	// request with a retry hint but records no shed (see refused).
	s.sched.close()
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}

// obsDispatch folds one session-loop dispatch — frame decoded → response
// queued or task handed to the scheduler — into the dispatch histogram.
// t0 is zero when metrics are off or the request fell outside the
// sample, making the disabled case a single branch.
func (s *Server) obsDispatch(t0 int64) {
	if t0 != 0 {
		s.om.dispatch.Observe(obs.Now() - t0)
	}
}

// respWriter serializes response frames and bodies onto one session's
// socket. Two producers feed it: the session loop (cache hits,
// write-behind acks, control replies) and the scheduler workers (every
// other request).
//
// Normally it is an async completion queue. A session multiplexing
// hundreds of logical streams can have megabytes of responses
// outstanding toward one socket; once the kernel send buffer fills, a
// synchronous write blocks while holding mu and every scheduler worker
// trying to complete a request queues up behind the socket — the worker
// pool drains at wire speed instead of device speed. So producers
// append encoded responses to q (a memcpy) and return; the dedicated
// writeLoop goroutine swaps the queue out and writes it with mu
// released, so socket backpressure stalls only the writer and
// concurrent completions coalesce into one large write. This is the
// completion-queue drain from the paper's server (Section 4): workers
// post completions, one agent moves them to the wire. It is also the
// TCP analogue of the paper's interrupt batching (Section 3.2):
// responses that complete while a write is in progress go out together
// in the next one.
//
// With noBatch (the ablation baseline) there is no queue: each response
// is two unbuffered writes under mu, frame then body, like the seed.
// With noPool the frame is also freshly Marshaled per response instead
// of staged in the scratch buffer — the seed's per-message allocation.
type respWriter struct {
	mu      sync.Mutex
	conn    io.Writer
	noPool  bool
	scratch [wire.ControlSize]byte // frame staging; guarded by mu

	// Async completion-queue state; see the type comment.
	async   bool
	q       []byte     // pending response bytes; guarded by mu
	qSpare  []byte     // writeLoop's drained buffer, recycled; guarded by mu
	qCond   *sync.Cond // writeLoop waits here for work
	qSpace  *sync.Cond // producers wait here when q exceeds asyncQMax
	qErr    error      // sticky socket error; poisons all later sends
	qClosed bool
	qWG     sync.WaitGroup

	// Reusable response structs for the session loop's inline answers
	// (cache hits, write-behind acks). Only the session goroutine fills
	// them; send encodes them under mu before returning.
	rr wire.ReadResp
	wr wire.WriteResp
}

func newRespWriter(conn io.Writer, noPool bool) *respWriter {
	return &respWriter{conn: conn, noPool: noPool}
}

// asyncQMax bounds the async response queue. Producers block once the
// unsent backlog passes it — the same backpressure a blocking write
// would apply, minus the convoy: the cap is far above what client
// credits admit in normal operation, so it only engages against a peer
// that stops reading.
const asyncQMax = 16 << 20

// startAsync switches the writer into async completion mode and starts
// writeLoop. closeConn force-closes the session socket, unblocking the
// session read loop when the writer hits a socket error.
func (w *respWriter) startAsync(closeConn func()) {
	w.async = true
	w.qCond = sync.NewCond(&w.mu)
	w.qSpace = sync.NewCond(&w.mu)
	w.qWG.Add(1)
	go w.writeLoop(closeConn)
}

// stopAsync stops accepting responses and waits for writeLoop to drain
// what is already queued (or die on the socket error that ended the
// session).
func (w *respWriter) stopAsync() {
	w.mu.Lock()
	w.qClosed = true
	w.mu.Unlock()
	w.qCond.Broadcast()
	w.qSpace.Broadcast()
	w.qWG.Wait()
}

// writeLoop is the session's single socket writer in async mode: swap
// the pending buffer out under mu, write it with mu released. The two
// buffers ping-pong, so steady state allocates nothing.
func (w *respWriter) writeLoop(closeConn func()) {
	defer w.qWG.Done()
	for {
		w.mu.Lock()
		for len(w.q) == 0 && !w.qClosed {
			w.qCond.Wait()
		}
		if len(w.q) == 0 || w.qErr != nil { // closed and drained, or poisoned
			w.mu.Unlock()
			return
		}
		buf := w.q
		w.q = w.qSpare[:0]
		w.mu.Unlock()
		w.qSpace.Broadcast()
		_, err := w.conn.Write(buf)
		w.mu.Lock()
		w.qSpare = buf[:0]
		if err != nil {
			w.qErr = err
			w.q = nil
			w.mu.Unlock()
			w.qSpace.Broadcast()
			closeConn()
			return
		}
		w.mu.Unlock()
	}
}

// qAppend copies one frame plus optional body into the async queue and
// wakes writeLoop. Call with mu held.
func (w *respWriter) qAppend(frame, body []byte) error {
	for len(w.q) >= asyncQMax && w.qErr == nil && !w.qClosed {
		w.qSpace.Wait()
	}
	if w.qErr != nil {
		return w.qErr
	}
	if w.qClosed {
		return net.ErrClosed
	}
	w.q = append(w.q, frame...)
	w.q = append(w.q, body...)
	w.qCond.Signal()
	return nil
}

// frame encodes m either into the shared scratch buffer (pooling on) or
// a fresh allocation (noPool, the seed's per-message cost). Call with mu
// held.
func (w *respWriter) frame(m wire.Message) []byte {
	if w.noPool {
		return wire.Marshal(m)
	}
	wire.MarshalInto(w.scratch[:], m)
	return w.scratch[:]
}

// send writes one response frame plus optional body: onto the async
// queue, or — before startAsync and under noBatch — straight to the
// socket as two unbuffered writes. body may be reused once send returns.
func (w *respWriter) send(m wire.Message, body []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.async {
		return w.qAppend(w.frame(m), body)
	}
	if _, err := w.conn.Write(w.frame(m)); err != nil {
		return err
	}
	if len(body) > 0 {
		if _, err := w.conn.Write(body); err != nil {
			return err
		}
	}
	return nil
}

// session speaks the V3 protocol on one connection. Control messages are
// fixed 64-byte frames; write payloads follow their Write message, read
// payloads follow the ReadResp.
//
// The loop is the request manager of the paper's pipelined server. It
// answers inline what needs no disk — cache hits, write-behind absorbs,
// stream control, pings — and hands everything else to the shared
// scheduler as a task for the frame's stream. Both paths post their
// responses to the session's respWriter, and the client matches them by
// Ack, so completions may reach the wire out of order. The loop reuses
// one decoded message per request type; a request handed to the
// scheduler is copied first.
func (s *Server) session(conn net.Conn) {
	defer func() {
		conn.Close()
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, readBufSize(s.cfg.NoBatch))
	var frame [wire.ControlSize]byte
	msg, err := wire.ReadFrom(br)
	if err != nil {
		s.logf("netv3: handshake read: %v", err)
		return
	}
	connect, ok := msg.(*wire.Connect)
	if !ok {
		s.logf("netv3: expected Connect, got %v", wire.TypeOf(msg))
		return
	}
	credits := s.cfg.Credits
	if w := int(connect.WantCreds); w > 0 && w < credits {
		credits = w
	}
	fc := flow.NewServer(credits)
	w := newRespWriter(conn, s.cfg.NoPool)
	// Feature negotiation: the reply carries the intersection of what the
	// client advertised and what this server speaks. An old client encodes
	// zeros in the (formerly padding) feature field, so the intersection is
	// empty and both sides keep the original protocol.
	srvFeats := wire.FeatureStreams | wire.FeatureTrace | wire.FeatureFence
	if s.cfg.NoTrace {
		srvFeats &^= wire.FeatureTrace
	}
	feats := connect.Features & srvFeats
	ss := s.newSession(conn)
	fenced := feats&wire.FeatureFence != 0
	defer func() {
		ss.tasks.Wait()
		if fenced {
			s.unfence(connect.ClientID, ss)
		}
		close(ss.done)
	}()
	if fenced {
		s.fence(connect.ClientID, ss)
	}
	resp := &wire.ConnectResp{
		Status: wire.StatusOK, Credits: uint16(credits),
		MaxXfer: s.cfg.MaxXfer, SessionID: ss.id,
		Features: feats,
	}
	if feats&wire.FeatureStreams != 0 {
		resp.MaxStreams = uint16(s.cfg.MaxStreams)
	}
	if err := w.send(resp, nil); err != nil {
		return
	}
	s.sessActive.Add(1)
	defer s.sessActive.Add(-1)
	defer func() { s.streamsActive.Add(-int64(len(ss.streams))) }()
	if !s.cfg.NoBatch {
		// The handshake above went out synchronously, so the ConnectResp
		// error path stays simple; from here on every response rides the
		// async completion queue.
		w.startAsync(func() { conn.Close() })
		defer w.stopAsync()
	}
	var rdMsg wire.Read  // reused for every read frame
	var wrMsg wire.Write // reused for every write frame
	var obsTick uint     // drives 1-in-traceSample dispatch timing
	for {
		t, err := wire.ReadFrame(br, &frame)
		if err != nil {
			if err != io.EOF {
				s.logf("netv3: session read: %v", err)
			}
			return
		}
		// Dispatch start stamp; zero when metrics are off or this request
		// falls outside the 1-in-traceSample sample.
		var dt0 int64
		if s.om != nil {
			if obsTick%traceSample == 0 {
				dt0 = obs.Now()
			}
			obsTick++
		}
		switch t {
		case wire.TRead:
			// Reads reserve no server-side slot: flow-control slots name
			// the staging buffers for payloads *arriving at* the server,
			// and a read carries none — its response buffer is accounted
			// by the credit the client holds until the ReadResp returns
			// it. So there is nothing to reserve here and fc is untouched.
			m := &rdMsg
			if err := wire.UnmarshalInto(frame[:], m); err != nil {
				return
			}
			arr := traceArr(m.Trace)
			s.flight.Record(fkDispatch, m.Trace, uint64(t), uint64(m.Volume))
			s.dispatchRead(m, w, ss, arr)
			s.obsDispatch(dt0)
		case wire.TWrite:
			m := &wrMsg
			if err := wire.UnmarshalInto(frame[:], m); err != nil {
				return
			}
			if err := fc.Reserve(m.Slot); err != nil {
				s.logf("netv3: %v", err)
				_ = w.send(&wire.WriteResp{Header: wire.Header{Ack: uint32(m.Seq), Stream: m.Stream},
					ReqID: m.ReqID, Status: wire.StatusEAgain}, nil)
				continue
			}
			// The payload follows the control message on the stream and
			// must be drained before the next frame.
			if m.Length > s.cfg.MaxXfer {
				s.logf("netv3: oversized write %d", m.Length)
				return
			}
			body := s.pool.Get(int(m.Length))
			if _, err := io.ReadFull(br, body); err != nil {
				s.pool.Put(body)
				return
			}
			// The slot names the staging buffer for the payload *in transit*;
			// those bytes are now off the stream, so release it immediately
			// rather than at request completion. Frames are processed in
			// order on one goroutine, which makes this the contract the
			// client's cancellation path relies on: a canceled request's
			// slot, reused on the same session, reaches this Reserve only
			// after the canceled write's payload already passed through here.
			// (fc is now touched only by the session loop — no lock.)
			_ = fc.Release(m.Slot)
			arr := traceArr(m.Trace)
			s.flight.Record(fkDispatch, m.Trace, uint64(t), uint64(m.Volume))
			v := s.lookup(m.Volume)
			if v != nil && v.wb != nil {
				if !v.wb.overWater() {
					// Write-behind: absorb into the cache as dirty blocks
					// and acknowledge immediately; the destager owns the
					// store write, Flush is the durability barrier.
					st := wire.StatusOK
					if err := v.absorbWrite(body, int64(m.Offset)); err != nil {
						st = wire.StatusEIO
						s.logf("netv3: write-behind vol %d [%d,+%d): %v", m.Volume, m.Offset, m.Length, err)
					}
					wr := &w.wr
					*wr = wire.WriteResp{Header: wire.Header{Ack: uint32(m.Seq), Stream: m.Stream},
						ReqID: m.ReqID, Status: st, Credits: 1}
					fillSpan(&wr.Header, &wr.SrvSpan, m.Trace, arr, arr)
					s.served.Add(1)
					_ = w.send(wr, nil)
					s.pool.Put(body)
					s.obsDispatch(dt0)
					continue
				}
				// Over the dirty high-watermark: this write goes through
				// the slow path; prod the destager to start catching up.
				v.wb.kickNow()
			}
			key, bg, weight := ss.tenant(m.Stream)
			mm := new(wire.Write)
			*mm = *m
			ok, qd := s.sched.tryEnqueue(key, weight, bg, &ss.tasks, func() {
				s.handleWrite(mm, body, w, arr)
				s.pool.Put(body)
			})
			if !ok {
				s.pool.Put(body)
				_ = w.send(&wire.WriteResp{Header: wire.Header{Ack: uint32(m.Seq), Stream: m.Stream},
					ReqID: m.ReqID, Status: wire.StatusEOverloaded, Credits: 1,
					RetryAfterMS: s.refused(m.Trace, key, qd)}, nil)
			}
			s.obsDispatch(dt0)
		case wire.TFlush:
			m := new(wire.Flush)
			if err := wire.UnmarshalInto(frame[:], m); err != nil {
				return
			}
			arr := traceArr(m.Trace)
			s.flight.Record(fkDispatch, m.Trace, uint64(t), uint64(m.Volume))
			// Flush rides the scheduler like any other foreground op — a
			// durability barrier is latency-sensitive to its issuer. The
			// worker running it may block in destage+fsync, which is safe:
			// the pass never waits on another scheduler task.
			key, bg, weight := ss.tenant(m.Stream)
			ok, qd := s.sched.tryEnqueue(key, weight, bg, &ss.tasks, func() { s.handleFlush(m, w, arr) })
			if !ok {
				_ = w.send(&wire.FlushResp{Header: wire.Header{Ack: uint32(m.Seq), Stream: m.Stream},
					ReqID: m.ReqID, Status: wire.StatusEOverloaded, Credits: 1,
					RetryAfterMS: s.refused(m.Trace, key, qd)}, nil)
			}
			s.obsDispatch(dt0)
		case wire.TStreamOpen:
			m := new(wire.StreamOpen)
			if err := wire.UnmarshalInto(frame[:], m); err != nil {
				return
			}
			sr := &wire.StreamOpenResp{Header: wire.Header{Stream: m.Stream}, Status: wire.StatusOK}
			switch {
			case m.Stream == 0:
				// Stream 0 is the implicit root session; "opening" it just
				// re-grants (harmless, and a cheap client probe).
				sr.Credits = uint16(credits)
			case ss.streams[m.Stream] == nil && len(ss.streams) >= s.cfg.MaxStreams:
				sr.Status = wire.StatusEOverloaded
				sr.RetryAfterMS = 10
			default:
				// New stream, or a reconnecting client re-announcing one this
				// session already knows — re-registration is idempotent and
				// the grant is re-sent (the client drops an unexpected reply).
				if ss.streams[m.Stream] == nil {
					s.streamsActive.Add(1)
					s.streamsTotal.Add(1)
				}
				ss.streams[m.Stream] = &srvStream{class: m.Class, weight: int(m.Weight)}
				grant := int(m.WantCreds)
				if grant <= 0 {
					grant = 1
				}
				if grant > credits {
					grant = credits
				}
				sr.Credits = uint16(grant)
			}
			if err := w.send(sr, nil); err != nil {
				return
			}
		case wire.TStreamClose:
			m := new(wire.StreamClose)
			if err := wire.UnmarshalInto(frame[:], m); err != nil {
				return
			}
			if m.Stream != 0 && ss.streams[m.Stream] != nil {
				delete(ss.streams, m.Stream)
				s.streamsActive.Add(-1)
			}
		case wire.TPing:
			var seq uint64
			if m, err := wire.Unmarshal(frame[:]); err == nil {
				seq = m.Hdr().Seq
			}
			_ = w.send(&wire.Pong{Header: wire.Header{Seq: seq}}, nil)
		case wire.TDisconnect:
			return
		default:
			s.logf("netv3: unexpected %v", t)
			return
		}
	}
}

// dispatchRead is the session loop's read path: it feeds the
// sequential-read detector, serves whole-cache hits inline (a memcpy on
// the session goroutine, answered with the session's reusable response),
// and hands everything else to the scheduler as a foreground task that
// runs handleRead synchronously on a worker. Admission refusals answer
// EOverloaded with a backlog-sized retry hint.
func (s *Server) dispatchRead(m *wire.Read, w *respWriter, ss *srvSession, arr int64) {
	v := s.lookup(m.Volume)
	if v != nil && m.Length <= s.cfg.MaxXfer &&
		checkStoreRange(v.store.Size(), int64(m.Offset), int(m.Length)) == nil {
		if v.pf != nil {
			// Strided read-ahead needs ring headroom: a strided window is
			// one vectored batch of up to maxPrefetchBlocks scattered
			// single-block reads, and speculation that can fill half the
			// ring starves the demand work queued behind it.
			strideOK := v.dq.q.Depth() >= 2*maxPrefetchBlocks
			blks, cancel, ok := ss.pf.observe(m.Volume, int64(m.Offset), int64(m.Length), strideOK)
			if len(cancel) > 0 {
				v.cache.prefetchDiscard(cancel)
			}
			if ok {
				v.pf.submit(blks)
			}
		}
		if v.cache != nil {
			body := s.pool.Get(int(m.Length))
			if v.tryCachedRead(body, int64(m.Offset)) {
				rr := &w.rr
				*rr = wire.ReadResp{Header: wire.Header{Ack: uint32(m.Seq), Stream: m.Stream},
					ReqID: m.ReqID, Status: wire.StatusOK, Credits: 1, Length: uint32(len(body))}
				fillSpan(&rr.Header, &rr.SrvSpan, m.Trace, arr, arr)
				s.served.Add(1)
				_ = w.send(rr, body)
				s.pool.Put(body)
				return
			}
			s.pool.Put(body)
		}
	}
	key, bg, weight := ss.tenant(m.Stream)
	mm := new(wire.Read)
	*mm = *m
	ok, qd := s.sched.tryEnqueue(key, weight, bg, &ss.tasks, func() { s.handleRead(mm, w, arr) })
	if !ok {
		_ = w.send(&wire.ReadResp{Header: wire.Header{Ack: uint32(m.Seq), Stream: m.Stream},
			ReqID: m.ReqID, Status: wire.StatusEOverloaded, Credits: 1,
			RetryAfterMS: s.refused(m.Trace, key, qd)}, nil)
	}
}

// fence makes ss the live session of a FeatureFence client. A live
// session with the same ClientID is its predecessor: the client only
// redials after losing that connection, and replays every request it
// had outstanding on it. The old session may not have noticed yet, and
// requests it already decoded may still be queued or running. Left
// alone, one of them could land after the replayed copy was answered
// and overwrite a newer write the client issued since. So fence severs
// the old socket and waits until its loop has exited and its scheduler
// tasks have finished; only then does the handshake answer.
func (s *Server) fence(clientID uint64, ss *srvSession) {
	s.fenceMu.Lock()
	old := s.fences[clientID]
	s.fences[clientID] = ss
	s.fenceMu.Unlock()
	if old != nil {
		old.conn.Close()
		<-old.done
	}
}

// unfence drops ss from the fence table unless a successor replaced it.
func (s *Server) unfence(clientID uint64, ss *srvSession) {
	s.fenceMu.Lock()
	if s.fences[clientID] == ss {
		delete(s.fences, clientID)
	}
	s.fenceMu.Unlock()
}

// refused accounts for a request the scheduler did not accept and
// returns the retry hint for its EOverloaded answer. queued > 0 is an
// admission shed: it goes into the flight recorder, which auto-captures
// an incident dump — an overload is exactly the moment the ring's recent
// history is worth keeping. queued == 0 means the scheduler is closed:
// the server is shutting down, which is not overload, so nothing is
// recorded; the request is still answered so its issuer never hangs.
func (s *Server) refused(trace, key uint64, queued int) uint16 {
	if queued > 0 && s.flight != nil {
		s.flight.Record(fkShed, trace, key, uint64(queued))
		s.flight.Incident("sched-shed")
	}
	return s.sched.retryAfterMS(queued)
}

// handleRead serves one read on a scheduler worker: through the cache,
// filling misses from the store, or straight from the store when the
// volume has no cache.
//
// arr is the traced request's arrival stamp (zero untraced): the gap to
// handler entry is the span block's queue wait — the real scheduler
// lane wait, since the worker runs this closure.
func (s *Server) handleRead(m *wire.Read, w *respWriter, arr int64) {
	start := traceArr(m.Trace)
	rr := &wire.ReadResp{Header: wire.Header{Ack: uint32(m.Seq), Stream: m.Stream},
		ReqID: m.ReqID, Credits: 1}
	v := s.lookup(m.Volume)
	if v == nil {
		rr.Status = wire.StatusENoVolume
		_ = w.send(rr, nil)
		return
	}
	if m.Length > s.cfg.MaxXfer {
		rr.Status = wire.StatusEInval
		_ = w.send(rr, nil)
		return
	}
	// Validate the range up front: the cached path slices per-block
	// buffers from wire-supplied arithmetic, so a hostile offset (say,
	// MaxInt64) must be rejected before it reaches any buffer math.
	if checkStoreRange(v.store.Size(), int64(m.Offset), int(m.Length)) != nil {
		rr.Status = wire.StatusEInval
		_ = w.send(rr, nil)
		return
	}
	body := s.pool.Get(int(m.Length))
	var err error
	if v.cache != nil {
		err = v.cachedRead(body, int64(m.Offset))
	} else {
		err = v.store.ReadAt(body, int64(m.Offset))
	}
	rr.Status = wire.StatusOK
	if err != nil {
		rr.Status = wire.StatusEIO
		s.pool.Put(body)
		body = nil
		s.logf("netv3: read: %v", err)
	}
	s.served.Add(1)
	rr.Length = uint32(len(body))
	fillSpan(&rr.Header, &rr.SrvSpan, m.Trace, arr, start)
	_ = w.send(rr, body)
	s.pool.Put(body)
}

// handleWrite serves one write on a scheduler worker: write-through on
// a volume without write-behind, or the destager's synchronous fallback
// once the dirty high-watermark is reached.
func (s *Server) handleWrite(m *wire.Write, body []byte, w *respWriter, arr int64) {
	start := traceArr(m.Trace)
	wr := &wire.WriteResp{Header: wire.Header{Ack: uint32(m.Seq), Stream: m.Stream},
		ReqID: m.ReqID, Status: wire.StatusOK, Credits: 1}
	v := s.lookup(m.Volume)
	if v == nil {
		wr.Status = wire.StatusENoVolume
	} else if err := v.write(body, int64(m.Offset)); err != nil {
		wr.Status = wire.StatusEIO
		s.logf("netv3: write: %v", err)
	}
	s.served.Add(1)
	fillSpan(&wr.Header, &wr.SrvSpan, m.Trace, arr, start)
	_ = w.send(wr, nil)
}

// handleFlush serves the wire-level durability barrier: drain the
// volume's write-behind state and fsync the store. Writes acknowledged
// before the Flush was received are durable once it succeeds.
func (s *Server) handleFlush(m *wire.Flush, w *respWriter, arr int64) {
	var t0 int64
	if s.om != nil || s.flight != nil {
		t0 = obs.Now()
	}
	start := traceArr(m.Trace)
	fr := &wire.FlushResp{Header: wire.Header{Ack: uint32(m.Seq), Stream: m.Stream},
		ReqID: m.ReqID, Status: wire.StatusOK, Credits: 1}
	v := s.lookup(m.Volume)
	if v == nil {
		fr.Status = wire.StatusENoVolume
	} else if err := v.flush(); err != nil {
		fr.Status = wire.StatusEIO
		s.logf("netv3: flush vol %d: %v", m.Volume, err)
	}
	if t0 != 0 {
		d := obs.Now() - t0
		if s.om != nil {
			s.om.flushDur.Observe(d)
		}
		s.flight.Record(fkFlush, m.Trace, uint64(m.Volume), uint64(d))
	}
	s.served.Add(1)
	fillSpan(&fr.Header, &fr.SrvSpan, m.Trace, arr, start)
	_ = w.send(fr, nil)
}

// DiskStats aggregates disk-pipeline counters across volumes.
type DiskStats struct {
	// DirtyBlocks and OrphanBlocks together are the volume of acked but
	// not yet committed write-behind data, in 8 KB blocks.
	DirtyBlocks  int64
	OrphanBlocks int64
	// DestageRuns / DestagedBlocks count coalesced store writes issued by
	// the destagers; DestageBatchHist buckets runs by size: 1, 2, ≤4, ≤8,
	// ≤16, ≤32, ≤64 blocks.
	DestageRuns      int64
	DestagedBlocks   int64
	DestageBatchHist [destageHistBuckets]int64
	// WriteThroughFallbacks counts writes bounced to the synchronous path
	// at the dirty high-watermark.
	WriteThroughFallbacks int64
	PrefetchFills         int64 // blocks installed by read-ahead
	PrefetchHits          int64 // demand hits on those blocks
	PrefetchDropped       int64 // read-ahead requests dropped (worker busy)
	// DiskQBatches counts vectored multi-op batches submitted to the disk
	// queues (destage passes, orphan drains, prefetch windows);
	// DiskQFallbacks counts batch ops a closing queue refused, which their
	// submitter then ran synchronously.
	DiskQBatches   int64
	DiskQFallbacks int64
	// Deprecated: demand reads no longer ride the disk queue; always 0.
	DiskQReads int64
	// Deprecated: write-through writes no longer ride the disk queue;
	// always 0.
	DiskQWrites int64
	// Deprecated: demand reads are no longer redone after an epoch
	// change; always 0.
	DiskQRetries int64
}

// DiskStats returns cumulative disk-pipeline counters.
func (s *Server) DiskStats() DiskStats {
	var d DiskStats
	for _, v := range *s.volumes.Load() {
		if v.cache != nil {
			d.DirtyBlocks += v.cache.dirtyCount.Load()
			d.OrphanBlocks += v.cache.orphanCount.Load()
			d.PrefetchFills += v.cache.prefFills.Load()
			d.PrefetchHits += v.cache.prefHits.Load()
		}
		if v.wb != nil {
			d.DestageRuns += v.wb.runs.Load()
			d.DestagedBlocks += v.wb.blocks.Load()
			for i := range v.wb.hist {
				d.DestageBatchHist[i] += v.wb.hist[i].Load()
			}
			d.WriteThroughFallbacks += v.wb.wtFallbacks.Load()
		}
		if v.pf != nil {
			d.PrefetchDropped += v.pf.dropped.Load()
		}
		d.DiskQBatches += v.dq.batches.Load()
		d.DiskQFallbacks += v.dq.fallbacks.Load()
	}
	return d
}

// cachedRead serves aligned 8 KB blocks from the sharded MQ cache,
// filling misses from the store; each block touches only its own shard
// lock.
func (v *volume) cachedRead(b []byte, off int64) error {
	end := off + int64(len(b))
	for cur := off; cur < end; {
		blk := uint64(cur / cacheBlockSize)
		within := cur % cacheBlockSize
		n := int64(cacheBlockSize - within)
		if end-cur < n {
			n = end - cur
		}
		if err := v.cache.readBlock(v, blk, within, n, b[cur-off:cur-off+n]); err != nil {
			return err
		}
		cur += n
	}
	return nil
}

// tryCachedRead serves b entirely from resident cache blocks, reporting
// false (with b possibly partially filled) on any miss — the session
// loop's inline hit path, which never touches the store.
func (v *volume) tryCachedRead(b []byte, off int64) bool {
	// checkStoreRange, not a bare off+len comparison: off near MaxInt64
	// wraps end negative, which sails past `end > size` AND makes the
	// loop below run zero iterations — reporting a successful "hit" that
	// returned no bytes at all.
	if checkStoreRange(v.store.Size(), off, len(b)) != nil {
		return false
	}
	end := off + int64(len(b))
	for cur := off; cur < end; {
		blk := uint64(cur / cacheBlockSize)
		within := cur % cacheBlockSize
		n := int64(cacheBlockSize - within)
		if end-cur < n {
			n = end - cur
		}
		if !v.cache.readBlockHit(blk, within, n, b[cur-off:cur-off+n]) {
			return false
		}
		cur += n
	}
	return true
}

// absorbWrite folds a write into the cache as dirty blocks — the
// write-behind acknowledge-then-destage path.
func (v *volume) absorbWrite(b []byte, off int64) error {
	if err := checkStoreRange(v.store.Size(), off, len(b)); err != nil {
		return err
	}
	end := off + int64(len(b))
	for cur := off; cur < end; {
		blk := uint64(cur / cacheBlockSize)
		within := cur % cacheBlockSize
		n := int64(cacheBlockSize - within)
		if end-cur < n {
			n = end - cur
		}
		if err := v.cache.absorb(v, blk, within, n, b[cur-off:cur-off+n]); err != nil {
			if err == errCacheBusy && v.wb != nil {
				// This block's shard has every slot pinned by uncommitted
				// state; commit the rest of the write through the
				// backpressure path. Already-absorbed blocks are dirty and
				// ordered by the destager as usual.
				return v.wb.writeThrough(b[cur-off:], cur)
			}
			return err
		}
		cur += n
	}
	return nil
}

// flush makes all acknowledged writes durable: drain write-behind state,
// then sync the store. The fsync rides the disk queue as a drain
// barrier, sequencing it after every outstanding queued write.
func (v *volume) flush() error {
	if v.wb != nil {
		return v.wb.flush()
	}
	return v.dq.fsyncBarrier()
}

// write commits to the store and updates any cached blocks. On a
// write-behind volume this is the high-watermark fallback, which must
// coordinate with the destager rather than write around dirty blocks.
func (v *volume) write(b []byte, off int64) error {
	if v.wb != nil {
		return v.wb.writeThrough(b, off)
	}
	if err := v.store.WriteAt(b, off); err != nil {
		return err
	}
	if v.cache == nil {
		return nil
	}
	end := off + int64(len(b))
	for cur := off; cur < end; {
		blk := uint64(cur / cacheBlockSize)
		within := cur % cacheBlockSize
		n := int64(cacheBlockSize - within)
		if end-cur < n {
			n = end - cur
		}
		v.cache.updateBlock(blk, within, n, b[cur-off:cur-off+n])
		cur += n
	}
	return nil
}
