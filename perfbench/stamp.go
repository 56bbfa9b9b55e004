package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
)

// blockSize is the I/O unit of the live workloads: one server cache block.
const blockSize = 8192

// A stamped block carries a 32-byte header — magic, block number,
// version and a CRC-32C of the body — and a body that is the run's
// random pattern rotated by (block, version). Any flipped byte breaks
// the CRC; a misplaced or stale block shows in the header.
const (
	stampMagic = 0x7633_6265_6e63_6821 // "v3bench!"
	hdrSize    = 32
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// stamper builds and checks stamped blocks for one run.
type stamper struct {
	pattern []byte // blockSize-hdrSize random bytes, from the seed
}

func newStamper(seed int64) *stamper {
	p := make([]byte, blockSize-hdrSize)
	rand.New(rand.NewSource(seed)).Read(p)
	return &stamper{pattern: p}
}

// fill writes version v of block b into buf (len blockSize).
func (s *stamper) fill(buf []byte, b int64, v uint64) {
	body := buf[hdrSize:]
	r := int((uint64(b)*2654435761 + v*40503) % uint64(len(s.pattern)))
	n := copy(body, s.pattern[r:])
	copy(body[n:], s.pattern[:r])
	binary.LittleEndian.PutUint64(buf[0:], stampMagic)
	binary.LittleEndian.PutUint64(buf[8:], uint64(b))
	binary.LittleEndian.PutUint64(buf[16:], v)
	binary.LittleEndian.PutUint32(buf[24:], crc32.Checksum(body, castagnoli))
	binary.LittleEndian.PutUint32(buf[28:], 0)
}

// check verifies that buf is an intact stamp of block b and returns its
// version.
func (s *stamper) check(buf []byte, b int64) (uint64, error) {
	if m := binary.LittleEndian.Uint64(buf[0:]); m != stampMagic {
		return 0, fmt.Errorf("block %d: bad magic %#x", b, m)
	}
	if got := int64(binary.LittleEndian.Uint64(buf[8:])); got != b {
		return 0, fmt.Errorf("block %d: holds block %d", b, got)
	}
	v := binary.LittleEndian.Uint64(buf[16:])
	if crc := crc32.Checksum(buf[hdrSize:], castagnoli); crc != binary.LittleEndian.Uint32(buf[24:]) {
		return v, fmt.Errorf("block %d version %d: body checksum mismatch", b, v)
	}
	return v, nil
}
