package gmem

import "testing"

// The single-word and into/append accessors agree with Read/Write and avoid
// allocation on the hot path.
func TestWordAccessors(t *testing.T) {
	s := NewSpace(2, 8)
	g := NewSegment(s, 0)
	if !g.WriteWordOwned(3, -77) {
		t.Fatal("WriteWordOwned refused a homed word")
	}
	if got := g.ReadWord(3); got != -77 {
		t.Fatalf("ReadWord = %d, want -77", got)
	}
	if got := g.Read(3, 1)[0]; got != -77 {
		t.Fatalf("Read disagrees with WriteWordOwned: %d", got)
	}
	// Warm the block so the lazy allocation doesn't count.
	g.WriteWordOwned(4, 0)
	allocs := testing.AllocsPerRun(500, func() {
		g.WriteWordOwned(4, 9)
		_ = g.ReadWord(4)
	})
	if allocs > 0 {
		t.Errorf("word accessors allocate %v/op, want 0", allocs)
	}
}

func TestReadIntoAndAppend(t *testing.T) {
	s := NewSpace(2, 8)
	g := NewSegment(s, 0)
	g.Write(2, []int64{10, 20, 30})
	dst := make([]int64, 3)
	g.ReadInto(dst, 2)
	if dst[0] != 10 || dst[2] != 30 {
		t.Fatalf("ReadInto = %v", dst)
	}
	out := g.ReadAppend([]int64{-1}, 2, 3)
	if len(out) != 4 || out[0] != -1 || out[3] != 30 {
		t.Fatalf("ReadAppend = %v", out)
	}
}

// ReadV/WriteV are inverses over multiple same-home ranges and preserve the
// given range order.
func TestReadVWriteVRoundTrip(t *testing.T) {
	s := NewSpace(2, 8) // kernel 0 homes blocks 0, 2, 4, ... (words 0-7, 16-23, ...)
	g := NewSegment(s, 0)
	addrs := []uint64{17, 2, 32} // out of order, three distinct blocks
	counts := []int{3, 2, 4}
	words := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	g.WriteV(addrs, counts, words)

	got := g.ReadV(nil, addrs, counts)
	if len(got) != len(words) {
		t.Fatalf("ReadV returned %d words, want %d", len(got), len(words))
	}
	for i, w := range words {
		if got[i] != w {
			t.Errorf("word %d: %d, want %d", i, got[i], w)
		}
	}
	// Spot-check placement through the scalar path.
	if g.ReadWord(17) != 1 || g.ReadWord(19) != 3 || g.ReadWord(2) != 4 || g.ReadWord(35) != 9 {
		t.Error("WriteV scattered words to wrong addresses")
	}
	// ReadV appends to the destination it is given.
	pre := g.ReadV([]int64{-5}, addrs[:1], counts[:1])
	if len(pre) != 4 || pre[0] != -5 || pre[1] != 1 {
		t.Errorf("ReadV did not append: %v", pre)
	}
}

func TestVectorAccessorsRejectForeignAddress(t *testing.T) {
	s := NewSpace(2, 8)
	g := NewSegment(s, 0)
	for _, f := range []func(){
		func() { g.ReadWord(8) }, // block 1 is homed at kernel 1
		func() { g.ReadInto(make([]int64, 1), 8) },
		func() { g.ReadV(nil, []uint64{0, 8}, []int{1, 1}) },
		func() { g.WriteV([]uint64{8}, []int{1}, []int64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("foreign address accepted")
				}
			}()
			f()
		}()
	}
}
