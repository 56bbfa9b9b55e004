// Quickstart: run a real V3 storage server over TCP loopback and use the
// block client against it — write, read back, verify, and survive a
// connection break.
package main

import (
	"bytes"
	"fmt"
	"log"

	"github.com/v3storage/v3/internal/netv3"
)

func main() {
	// 1. A storage node exporting a 64 MB in-memory volume with an MQ
	//    block cache (the V3 server's cache manager).
	cfg := netv3.DefaultServerConfig()
	cfg.CacheBlocks = 1024
	srv := netv3.NewServer(cfg)
	if err := srv.AddVolume(1, netv3.NewMemStore(64<<20)); err != nil {
		log.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	fmt.Println("V3 server on", addr)

	// 2. A DSA-style client: credit flow control, overlapped requests,
	//    transparent reconnection.
	client, err := netv3.Dial(addr.String(), netv3.DefaultClientConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// 3. Write a block, read it back.
	block := bytes.Repeat([]byte("v3!"), 2731)[:8192]
	if err := client.Write(1, 32*8192, block); err != nil {
		log.Fatal(err)
	}
	got := make([]byte, 8192)
	if err := client.Read(1, 32*8192, got); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, block) {
		log.Fatal("verification failed")
	}
	fmt.Println("wrote and verified one 8 KB block")

	// 4. Overlap a burst of I/O through the credit window.
	errc := make(chan error, 32)
	for i := 0; i < 32; i++ {
		go func(i int) {
			data := bytes.Repeat([]byte{byte(i)}, 8192)
			if err := client.Write(1, int64(i)*8192, data); err != nil {
				errc <- err
				return
			}
			buf := make([]byte, 8192)
			if err := client.Read(1, int64(i)*8192, buf); err != nil {
				errc <- err
				return
			}
			if buf[0] != byte(i) {
				errc <- fmt.Errorf("block %d corrupted", i)
				return
			}
			errc <- nil
		}(i)
	}
	for i := 0; i < 32; i++ {
		if err := <-errc; err != nil {
			log.Fatal(err)
		}
	}
	hits, misses := srv.CacheStats()
	fmt.Printf("32 blocks verified concurrently (server cache: %d hits, %d misses)\n", hits, misses)
	fmt.Printf("server handled %d requests over %d session(s)\n", srv.Served(), srv.Sessions())
}
