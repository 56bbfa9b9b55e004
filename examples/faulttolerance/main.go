// Fault tolerance: run DSA over a lossy VI link and over a breaking TCP
// connection, demonstrating the paper's point that "retransmission and
// reconnection ... are critical for industrial-strength systems" — VI
// itself provides neither.
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"github.com/v3storage/v3/internal/bench"
	"github.com/v3storage/v3/internal/core"
	"github.com/v3storage/v3/internal/netv3"
	"github.com/v3storage/v3/internal/sim"
)

func main() {
	// --- Part 1: simulated VI link dropping 5% of all messages. ---
	cfg := bench.MicroConfig(core.KDSA)
	cfg.NIC.DropProb = 0.05
	cfg.DSA.RetxTimeout = 30 * time.Millisecond
	cfg.DSA.RetxInterval = 5 * time.Millisecond
	sys := bench.Build(cfg)
	completed := 0
	sys.E.Go("app", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			if sys.Client.Read(p, int64(i%50)*8192, 8192).Done() {
				completed++
			}
		}
		sys.Client.Stop()
	})
	sys.E.RunFor(2 * time.Minute)
	fmt.Printf("lossy VI link (5%% drop): %d/300 reads completed, %d retransmissions\n",
		completed, sys.Client.Retransmits())

	// --- Part 2: real TCP session killed mid-stream; the client
	// reconnects and replays. ---
	srv := netv3.NewServer(netv3.DefaultServerConfig())
	if err := srv.AddVolume(1, netv3.NewMemStore(16<<20)); err != nil {
		log.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	ccfg := netv3.DefaultClientConfig()
	ccfg.ReconnectBackoff = 25 * time.Millisecond
	client, err := netv3.Dial(addr.String(), ccfg)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	payload := bytes.Repeat([]byte{0xAB}, 8192)
	if err := client.Write(1, 0, payload); err != nil {
		log.Fatal(err)
	}
	// Sever the TCP connection under the client's feet.
	client.KillConnForTest()
	// The next I/O trips the reconnection state machine and succeeds on
	// the replayed session.
	got := make([]byte, 8192)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := client.Read(1, 0, got); err == nil {
			break
		}
	}
	if !bytes.Equal(got, payload) {
		log.Fatal("data lost across reconnection")
	}
	fmt.Printf("TCP session killed and recovered: %d reconnection(s), %d server sessions, data intact\n",
		client.Reconnects(), srv.Sessions())
}
