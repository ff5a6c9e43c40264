package gmem

import "testing"

func BenchmarkSegmentWordOps(b *testing.B) {
	s := NewSpace(1, 32)
	g := NewSegment(s, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Write(uint64(i%32), []int64{int64(i)})
		g.Read(uint64(i%32), 1)
	}
}

func BenchmarkSegmentFetchAdd(b *testing.B) {
	s := NewSpace(1, 32)
	g := NewSegment(s, 0)
	for i := 0; i < b.N; i++ {
		g.AtomicOwned(3, false, 1, 0)
	}
}

func BenchmarkCacheLookup(b *testing.B) {
	s := NewSpace(4, 32)
	c := NewCache(s)
	blk := make([]int64, 32)
	c.Insert(0, blk)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Lookup(uint64(i % 32))
	}
}

func BenchmarkHomeRuns(b *testing.B) {
	s := NewSpace(6, 32)
	for i := 0; i < b.N; i++ {
		s.HomeRuns(7, 900, func(home int, start uint64, count int) {})
	}
}
