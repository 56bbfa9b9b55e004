package netv3

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/v3storage/v3/internal/wire"
)

func startServer(t *testing.T, cfg ServerConfig, volSize int64) (*Server, string) {
	t.Helper()
	srv := NewServer(cfg)
	srv.AddVolume(1, NewMemStore(volSize))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv, addr.String()
}

func TestReadWriteRoundtrip(t *testing.T) {
	_, addr := startServer(t, DefaultServerConfig(), 1<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := []byte("hello, VI-attached volume vault")
	if err := c.Write(1, 8192, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := c.Read(1, 8192, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q want %q", got, data)
	}
}

func TestReadUnwrittenReturnsZeros(t *testing.T) {
	_, addr := startServer(t, DefaultServerConfig(), 1<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := make([]byte, 4096)
	if err := c.Read(1, 0, got); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten region not zero")
		}
	}
}

func TestLargeTransfer(t *testing.T) {
	_, addr := startServer(t, DefaultServerConfig(), 8<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := make([]byte, 1<<20) // MaxXfer default
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := c.Write(1, 1<<20, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := c.Read(1, 1<<20, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("1MB roundtrip corrupted")
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, addr := startServer(t, DefaultServerConfig(), 16<<20)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr, DefaultClientConfig())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 16; i++ {
				off := int64(w*16+i) * 8192
				data := bytes.Repeat([]byte{byte(w*16 + i)}, 8192)
				if err := c.Write(1, off, data); err != nil {
					errs <- err
					return
				}
				got := make([]byte, 8192)
				if err := c.Read(1, off, got); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, data) {
					errs <- fmt.Errorf("worker %d block %d corrupted", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if srv.Served() < 128 {
		t.Fatalf("served=%d", srv.Served())
	}
	if srv.Sessions() != 4 {
		t.Fatalf("sessions=%d", srv.Sessions())
	}
}

func TestOverlappedIOWithinOneClient(t *testing.T) {
	_, addr := startServer(t, DefaultServerConfig(), 16<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			off := int64(i) * 65536
			data := bytes.Repeat([]byte{byte(i + 1)}, 32768)
			if err := c.Write(1, off, data); err != nil {
				errs <- err
				return
			}
			got := make([]byte, len(data))
			if err := c.Read(1, off, got); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, data) {
				errs <- fmt.Errorf("stream %d corrupted", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestUnknownVolume(t *testing.T) {
	_, addr := startServer(t, DefaultServerConfig(), 1<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Write(99, 0, []byte("x")); err == nil {
		t.Fatal("write to unknown volume should fail")
	}
	// Session must remain usable.
	if err := c.Write(1, 0, []byte("y")); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfRangeIO(t *testing.T) {
	_, addr := startServer(t, DefaultServerConfig(), 65536)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Write(1, 65536-10, make([]byte, 100)); err == nil {
		t.Fatal("out-of-range write should fail")
	}
	if err := c.Read(1, 0, make([]byte, 512)); err != nil {
		t.Fatalf("session unusable after EIO: %v", err)
	}
}

func TestServerCacheHits(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.CacheBlocks = 128
	srv, addr := startServer(t, cfg, 4<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 8192)
	if err := c.Write(1, 0, bytes.Repeat([]byte{7}, 8192)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Read(1, 0, buf); err != nil {
			t.Fatal(err)
		}
	}
	hits, _ := srv.CacheStats()
	if hits == 0 {
		t.Fatal("no cache hits recorded")
	}
	if buf[0] != 7 {
		t.Fatal("cached data wrong")
	}
}

func TestCachedReadConsistentAfterWrite(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.CacheBlocks = 128
	_, addr := startServer(t, cfg, 1<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 8192)
	if err := c.Write(1, 0, bytes.Repeat([]byte{1}, 8192)); err != nil {
		t.Fatal(err)
	}
	if err := c.Read(1, 0, buf); err != nil { // populates the cache
		t.Fatal(err)
	}
	if err := c.Write(1, 0, bytes.Repeat([]byte{2}, 8192)); err != nil {
		t.Fatal(err)
	}
	if err := c.Read(1, 0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 2 || buf[8191] != 2 {
		t.Fatal("stale cache after write")
	}
}

func TestFileStoreBacked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.img")
	fs, err := NewFileStore(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(DefaultServerConfig())
	srv.AddVolume(7, fs)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	c, err := Dial(addr.String(), DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := []byte("persistent bytes")
	if err := c.Write(7, 512, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := c.Read(7, 512, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("file store roundtrip corrupted")
	}
	if srv.VolumeSize(7) != 1<<20 {
		t.Fatal("volume size wrong")
	}
}

func TestCreditWindowRespected(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.Credits = 2
	_, addr := startServer(t, cfg, 8<<20)
	ccfg := DefaultClientConfig()
	c, err := Dial(addr, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// 16 concurrent writes through a 2-credit window must all complete.
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := c.Write(1, int64(i)*8192, bytes.Repeat([]byte{byte(i)}, 8192)); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestReconnectReplaysOutstanding(t *testing.T) {
	srv, addr := startServer(t, DefaultServerConfig(), 1<<20)
	ccfg := DefaultClientConfig()
	ccfg.ReconnectBackoff = 20 * time.Millisecond
	c, err := Dial(addr, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Write(1, 0, []byte("before")); err != nil {
		t.Fatal(err)
	}
	_ = srv // the same listener keeps accepting
	c.KillConnForTest()
	// Next I/O hits the dead socket, triggers reconnection, and succeeds.
	deadline := time.Now().Add(5 * time.Second)
	var got []byte
	for time.Now().Before(deadline) {
		got = make([]byte, 6)
		if err := c.Read(1, 0, got); err == nil {
			break
		}
	}
	if string(got) != "before" {
		t.Fatalf("after reconnect got %q", got)
	}
	if c.Reconnects() == 0 {
		t.Fatal("no reconnection recorded")
	}
	if srv.Sessions() < 2 {
		t.Fatalf("server sessions=%d, want >= 2", srv.Sessions())
	}
}

func TestClientCloseFailsPending(t *testing.T) {
	_, addr := startServer(t, DefaultServerConfig(), 1<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Read(1, 0, make([]byte, 16)); err == nil {
		t.Fatal("read after close should fail")
	}
}

func TestMemStoreBounds(t *testing.T) {
	m := NewMemStore(100)
	if err := m.ReadAt(make([]byte, 10), 95); err == nil {
		t.Fatal("overflow read accepted")
	}
	if err := m.WriteAt(make([]byte, 10), -1); err == nil {
		t.Fatal("negative offset accepted")
	}
	if m.Size() != 100 {
		t.Fatal("size wrong")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDefaultConfigIsBenchmarkedShape pins the one dispatch shape: the
// default config runs the shared scheduler at GOMAXPROCS workers, and a
// cached volume's destage passes ride its disk queue as vectored
// batches. A second shape hidden behind a default cannot come back
// without failing here.
func TestDefaultConfigIsBenchmarkedShape(t *testing.T) {
	srv := NewServer(DefaultServerConfig())
	if got, want := srv.SchedStats().Workers, runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("default scheduler workers = %d, want GOMAXPROCS = %d", got, want)
	}
	srv.Close()

	cfg := DefaultServerConfig()
	cfg.CacheBlocks = 256
	cfg.DestageInterval = time.Hour // only Flush destages
	srv, addr := startServer(t, cfg, 4<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// 1 MB of contiguous writes is 128 dirty blocks: two maximal destage
	// runs, which the Flush pass submits as one vectored batch.
	data := bytes.Repeat([]byte{0x3C}, 64<<10)
	for off := int64(0); off < 1<<20; off += int64(len(data)) {
		if err := c.Write(1, off, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(1); err != nil {
		t.Fatal(err)
	}
	if d := srv.DiskStats(); d.DiskQBatches == 0 {
		t.Fatalf("destage on the default shape issued no disk-queue batches: %+v", d)
	}
}

// gatedStore blocks every WriteAt until the test releases it, announcing
// each arrival on entered.
type gatedStore struct {
	BlockStore
	entered chan struct{}
	release chan struct{}
}

func (g *gatedStore) WriteAt(b []byte, off int64) error {
	g.entered <- struct{}{}
	<-g.release
	return g.BlockStore.WriteAt(b, off)
}

// TestReconnectFencesOldSession is the regression test for a replayed
// write being overtaken by its own stale copy. A client whose connection
// drops replays its unanswered requests on a new session, but the old
// session may still hold them — queued on the scheduler, or blocked in
// the store. If the new session answered the replay and the client then
// wrote the same block again, the old copy could land last and undo the
// newer write. Under FeatureFence the server holds the new session's
// handshake until the old session's requests have finished.
func TestReconnectFencesOldSession(t *testing.T) {
	gs := &gatedStore{BlockStore: NewMemStore(1 << 20),
		entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv := NewServer(DefaultServerConfig())
	srv.AddVolume(1, gs)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })

	const clientID = 42
	dial := func() net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if err := wire.WriteTo(conn, &wire.Connect{ClientID: clientID, Features: wire.FeatureFence}); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	old := dial()
	if _, err := wire.ReadFrom(old); err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte{0x11}, 8192)
	if err := wire.WriteTo(old, &wire.Write{Header: wire.Header{Seq: 1}, ReqID: 1,
		Volume: 1, Length: uint32(len(body))}); err != nil {
		t.Fatal(err)
	}
	if _, err := old.Write(body); err != nil {
		t.Fatal(err)
	}
	<-gs.entered // the old session's write is now stuck in the store

	// The same client redials. Its handshake must wait out the old write.
	next := dial()
	_ = next.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if m, err := wire.ReadFrom(next); err == nil {
		t.Fatalf("new session answered %v while the old session's write was in flight", wire.TypeOf(m))
	}
	close(gs.release)
	_ = next.SetReadDeadline(time.Now().Add(5 * time.Second))
	m, err := wire.ReadFrom(next)
	if err != nil {
		t.Fatalf("new session handshake after the old write finished: %v", err)
	}
	if r, ok := m.(*wire.ConnectResp); !ok || r.Status != wire.StatusOK || r.Features&wire.FeatureFence == 0 {
		t.Fatalf("handshake reply %+v, want an OK ConnectResp with FeatureFence", m)
	}
}
