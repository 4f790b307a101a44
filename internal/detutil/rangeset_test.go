package detutil

import "testing"

type span struct{ lo, hi uint64 }

func (s *span) Bounds() (start, end uint64) { return s.lo, s.hi }

// BenchmarkRegionFind is the lookup both worlds make per fault: 64 mapped
// ranges with guard gaps between them, addresses that hit and that miss.
func BenchmarkRegionFind(b *testing.B) {
	const ranges, size, gap = 64, 256 << 12, 16 << 12
	var s RangeSet[*span]
	for i := uint64(0); i < ranges; i++ {
		s.Insert(&span{i * (size + gap), i*(size+gap) + size})
	}
	hits := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s.Find(uint64(i)*0x9E3779B97F4A7C15%(ranges*(size+gap))) != nil {
			hits++
		}
	}
	if b.N > 1000 && (hits == 0 || hits == b.N) {
		b.Fatalf("%d of %d lookups hit: the addresses do not cover both outcomes", hits, b.N)
	}
}
