//go:build ignore

// Generates the committed seed corpora for the gmem fuzz targets (the
// submission ring and the write-combining buffer). Run from the repo root:
//
//	go run internal/gmem/corpusgen.go
package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
)

func put(dir, name string, data []byte) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(err)
	}
	body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		panic(err)
	}
}

// schedule encodes one FuzzSubmitRing input: ring-size selector (4, 8, 16
// or 32 slots), start position, then one byte per op (mod 4: 0 push,
// 1 drain-all, 2 drain-head, 3 free the settled slot numbered byte/4).
func schedule(sizeSel byte, start uint64, ops ...byte) []byte {
	data := make([]byte, 9, 9+len(ops))
	data[0] = sizeSel
	binary.LittleEndian.PutUint64(data[1:], start)
	return append(data, ops...)
}

func main() {
	dir := "internal/gmem/testdata/fuzz/FuzzSubmitRing"
	// Plain FIFO traffic on an 8-slot ring, every verdict read and freed.
	put(dir, "seed-fifo", schedule(1, 0, 0, 0, 0, 1, 3, 3, 3, 0, 2, 3, 1, 3))
	// Positions wrap uint64 mid-schedule: the slot-state words must keep
	// their modular discipline across the wrap (the newSubmitRingAt
	// misinitialisation this corpus pinned hung Push forever).
	put(dir, "seed-wrap", schedule(1, ^uint64(0)-3, 0, 0, 0, 0, 1, 3, 3, 3, 3, 0, 0, 0, 0, 1, 2, 2))
	// Overfill a 4-slot ring: pushes beyond capacity reject cleanly, and
	// keep rejecting after Release until the tail slot's producer frees it
	// (the free of slot byte/4 = 1 comes first, out of order).
	put(dir, "seed-full", schedule(0, ^uint64(0)-1, 0, 0, 0, 0, 0, 0, 1, 0, 7, 0, 3, 0, 3, 0, 1, 3))
	// Head-at-a-time drains interleaved with pushes and frees, high start
	// bit set.
	put(dir, "seed-head", schedule(3, 1<<63, 2, 0, 2, 0, 0, 2, 3, 2, 2, 0, 1, 7, 3, 3))

	// FuzzWCBuf schedules: one byte per op (mod 8: 0-4 write, consuming an
	// addr byte (%64) and a value byte; 5-6 drain; 7 discard).
	wdir := "internal/gmem/testdata/fuzz/FuzzWCBuf"
	// Plain writes then one flush.
	put(wdir, "seed-flush", []byte{0, 1, 2, 0, 1, 3, 5})
	// Same-word overwrites across two flush epochs: the LWW seed.
	put(wdir, "seed-lww", []byte{0, 7, 1, 0, 7, 2, 0, 7, 3, 5, 0, 7, 4, 6})
	// Discard mid-stream (the peer-down / skipped-flush fault path).
	put(wdir, "seed-discard", []byte{1, 9, 1, 2, 9, 2, 7, 3, 9, 3, 5})
	// Dense same-block collisions spanning a flush boundary.
	put(wdir, "seed-dense", []byte{0, 0, 1, 1, 0, 2, 2, 0, 3, 3, 0, 4, 5, 4, 0, 5, 0, 0, 6, 6})
}
