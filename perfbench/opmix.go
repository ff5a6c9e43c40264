package main

import (
	"fmt"
	"math/rand"
	"runtime"
)

// The op mix is a closed loop: each PE is one client that issues its next
// operation when the previous one returns, aimed only at words homed on the
// next PE. Reads dominate so the median is a scalar read; the message-path
// operations (FetchAdd and 32-word block reads, plus scalar writes over
// tcp) sit in the tail.
const (
	mixReadShare  = 0.60
	mixWriteShare = 0.20
	mixAddShare   = 0.10 // the rest are block reads
	mixDataBlocks = 4    // data blocks per client, plus one counter block
)

// mixRound is one op-mix repetition's outcome.
type mixRound struct {
	*runOut
	ops, failed int64
	latNS       []float64 // every operation's latency, all clients
	opsPerS     float64   // on the cluster clock
	mallocs     uint64    // heap allocations during the op phase
}

// mixClient is one PE's view of the round, written only by that PE.
type mixClient struct {
	latNS         []float64
	first, last   int64
	ops, failed   int64
	problem       error
	mallocsBefore uint64
	mallocsAfter  uint64
}

// runMix runs one op-mix round of opsPerClient operations per PE.
func runMix(c clusterSpec, opsPerClient int, seed uint64) (*mixRound, error) {
	clients := make([]mixClient, c.npe)
	out, err := c.run(func(p benchProc) error {
		return mixProgram(p, c.virtual(), opsPerClient, seed, &clients[p.ID()])
	})
	if err != nil {
		return nil, fmt.Errorf("op mix on %s: %w", c.kind, err)
	}
	r := &mixRound{runOut: out}
	first, last := clients[0].first, clients[0].last
	for i := range clients {
		cl := &clients[i]
		if cl.problem != nil {
			return nil, fmt.Errorf("op mix on %s: wrong answer: %w", c.kind, cl.problem)
		}
		r.ops += cl.ops
		r.failed += cl.failed
		r.latNS = append(r.latNS, cl.latNS...)
		first, last = min(first, cl.first), max(last, cl.last)
	}
	r.opsPerS = float64(r.ops) / (float64(last-first) / 1e9)
	r.mallocs = clients[0].mallocsAfter - clients[0].mallocsBefore
	return r, nil
}

// mixProgram is one client. It keeps the value it last wrote to each of its
// words and the number of its FetchAdds, and checks every read, block read
// and FetchAdd return against them: it is the only writer of its words.
func mixProgram(p benchProc, virtual bool, ops int, seed uint64, cl *mixClient) error {
	sp := p.Space()
	n, id, bw := p.N(), p.ID(), uint64(sp.BlockWords)
	per := uint64(mixDataBlocks + 1)
	base := p.AllocBlocks(int(uint64(n) * per * bw))
	home := (id + 1) % n
	// Block-cyclic homes: pick this client's blocks among those homed at
	// the next PE. Every client targets a different home, so no two
	// clients share a block.
	var blocks []uint64
	for b := base / bw; len(blocks) < int(per); b++ {
		if sp.HomeOf(b*bw) == home {
			blocks = append(blocks, b*bw)
		}
	}
	counter := blocks[mixDataBlocks]
	words := uint64(mixDataBlocks) * bw
	addrOf := func(w uint64) uint64 { return blocks[w/bw] + w%bw }
	want := make([]int64, words)
	adds := int64(0)
	rng := rand.New(rand.NewSource(int64(seed)*7919 + int64(id)))
	clock := clockOf(p, virtual)
	cl.latNS = make([]float64, 0, ops)
	fail := func(err error) {
		if cl.problem == nil {
			cl.problem = err
		}
	}

	var ms runtime.MemStats
	p.Barrier()
	if id == 0 {
		runtime.ReadMemStats(&ms)
		cl.mallocsBefore = ms.Mallocs
	}
	p.Barrier()
	cl.first = clock()
	for i := 0; i < ops; i++ {
		x := rng.Float64()
		t0 := clock()
		var err error
		switch {
		case x < mixReadShare:
			w := uint64(rng.Intn(int(words)))
			var v int64
			if v, err = p.GMReadErr(addrOf(w)); err == nil && v != want[w] {
				fail(fmt.Errorf("client %d: word %d read %d, last wrote %d", id, w, v, want[w]))
			}
		case x < mixReadShare+mixWriteShare:
			w := uint64(rng.Intn(int(words)))
			v := int64(id+1)<<40 | int64(i)
			if err = p.GMWriteErr(addrOf(w), v); err == nil {
				want[w] = v
			}
		case x < mixReadShare+mixWriteShare+mixAddShare:
			var v int64
			if v, err = p.FetchAddErr(counter, 1); err == nil {
				if v != adds {
					fail(fmt.Errorf("client %d: FetchAdd returned %d after %d increments", id, v, adds))
				}
				adds++
			}
		default:
			blk := uint64(rng.Intn(mixDataBlocks))
			var got []int64
			if got, err = blockRead(p, blocks[blk], int(bw)); err == nil {
				for j, v := range got {
					if w := blk*bw + uint64(j); v != want[w] {
						fail(fmt.Errorf("client %d: block word %d read %d, last wrote %d", id, w, v, want[w]))
						break
					}
				}
			}
		}
		cl.latNS = append(cl.latNS, float64(clock()-t0))
		cl.ops++
		if err != nil {
			cl.failed++
		}
	}
	cl.last = clock()
	p.Barrier()
	if id == 0 {
		runtime.ReadMemStats(&ms)
		cl.mallocsAfter = ms.Mallocs
	}
	if v, err := p.GMReadErr(counter); err != nil {
		return fmt.Errorf("client %d: reading counter: %w", id, err)
	} else if v != adds {
		fail(fmt.Errorf("client %d: counter %d after %d increments", id, v, adds))
	}
	p.Barrier()
	return nil
}

// blockRead turns the block read's failure panic into an error, so a
// failed operation is counted instead of ending the client.
func blockRead(p benchProc, addr uint64, n int) (words []int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("block read at %d: %v", addr, r)
		}
	}()
	return p.GMReadBlock(addr, n), nil
}
