// Live volume clone over the replication log: a consumer subscribes to
// a mirrored vault's change feed, catches up on everything the volume
// already holds (the first batches arrive as extent coverage), then
// follows the live tail record by record while a writer keeps mutating
// the volume. Because batches describe ranges to copy — not deltas —
// re-applying a batch is idempotent, so the consumer commits its cursor
// only after applying and can crash-resume from the committed cursor
// with SubscribeAt. The walkthrough finishes by proving the clone
// byte-identical to the volume, then demonstrates the resume path.
package main

import (
	"bytes"
	"fmt"
	"log"
	"sync"
	"time"

	"github.com/v3storage/v3/internal/netv3"
	"github.com/v3storage/v3/internal/repl"
	"github.com/v3storage/v3/internal/vvault"
)

const member = 4 << 20 // 4 MB per replica
const blk = int64(8192)

func startBackend(store netv3.BlockStore, addr string) (*netv3.Server, string) {
	srv := netv3.NewServer(netv3.DefaultServerConfig())
	if err := srv.AddVolume(1, store); err != nil {
		log.Fatal(err)
	}
	a, err := srv.Listen(addr)
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve()
	return srv, a.String()
}

// apply copies one batch's coverage from the vault into the clone
// buffer. Fallback extents stand in for records the log truncated
// before this subscriber saw them; records are precise writes.
func apply(v *vvault.Vault, clone []byte, b repl.Batch) error {
	for _, e := range b.Fallback {
		if err := v.Read(e.Off, clone[e.Off:e.End]); err != nil {
			return err
		}
	}
	for _, r := range b.Records {
		if err := v.Read(r.Off, clone[r.Off:r.Off+r.Len]); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	srvA, addrA := startBackend(netv3.NewMemStore(member), "127.0.0.1:0")
	defer srvA.Close()
	srvB, addrB := startBackend(netv3.NewMemStore(member), "127.0.0.1:0")
	defer srvB.Close()

	cfg := vvault.DefaultConfig(vvault.ModeMirror)
	cfg.MemberSize = member
	v, err := vvault.Open([]string{addrA, addrB}, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer v.Close()

	// Pre-existing content the clone has never seen: the feed's catch-up
	// phase must cover it before any live records.
	for i := int64(0); i < 16; i++ {
		if err := v.Write(i*blk, bytes.Repeat([]byte{byte(i) + 1}, int(blk))); err != nil {
			log.Fatal(err)
		}
	}

	feed, err := v.Subscribe("clone")
	if err != nil {
		log.Fatal(err)
	}
	clone := make([]byte, member)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for feed.Wait(stop) {
			b := feed.Poll(32)
			if err := apply(v, clone, b); err != nil {
				log.Fatalf("clone apply: %v", err)
			}
			// Only after the batch has landed in the clone does the
			// cursor move — a crash before this line re-applies the
			// batch on resume, which is safe because batches copy
			// ranges rather than deltas.
			feed.Commit(b.Next)
		}
	}()

	// A writer keeps mutating the volume while the clone follows.
	for i := 0; i < 128; i++ {
		off := (int64(i*13) % (member/blk - 1)) * blk
		if err := v.Write(off, bytes.Repeat([]byte{byte(i)}, int(blk))); err != nil {
			log.Fatal(err)
		}
	}

	// Writer done: wait for the feed to drain to the log head.
	for feed.Cursor() < v.LogStatus().Head {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	fmt.Printf("clone drained: cursor=%d head=%d (feeds: %v)\n",
		feed.Cursor(), v.LogStatus().Head, v.FeedCursors())

	want := make([]byte, member)
	for off := int64(0); off < member; off += 1 << 20 {
		if err := v.Read(off, want[off:off+1<<20]); err != nil {
			log.Fatal(err)
		}
	}
	if !bytes.Equal(clone, want) {
		log.Fatal("clone diverged from the volume")
	}
	fmt.Println("verified: clone byte-identical to the live volume")

	// Crash-resume: remember the committed cursor, drop the feed, write
	// more, and resume from the cursor — the new feed owes only the
	// records past it, not another full catch-up.
	resumeAt := feed.Cursor()
	feed.Close()
	for i := int64(0); i < 8; i++ {
		off := (32 + i) * blk
		if err := v.Write(off, bytes.Repeat([]byte{0xAB}, int(blk))); err != nil {
			log.Fatal(err)
		}
	}
	feed2, err := v.SubscribeAt("clone", resumeAt)
	if err != nil {
		log.Fatal(err)
	}
	defer feed2.Close()
	applied := 0
	for feed2.Cursor() < v.LogStatus().Head {
		b := feed2.Poll(32)
		if err := apply(v, clone, b); err != nil {
			log.Fatal(err)
		}
		applied += len(b.Records)
		feed2.Commit(b.Next)
	}
	if !bytes.Equal(clone[32*blk:40*blk], bytes.Repeat([]byte{0xAB}, int(8*blk))) {
		log.Fatal("resumed clone missed the post-crash writes")
	}
	fmt.Printf("resumed from cursor %d: %d records applied, clone current again\n",
		resumeAt, applied)
}
