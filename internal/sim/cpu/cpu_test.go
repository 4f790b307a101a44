package cpu

import (
	"testing"
	"testing/quick"
)

func TestDefaultCostsMatchPaperMeasurements(t *testing.T) {
	// These five constants are direct measurements in the paper; they must
	// not drift, because several figure-level targets are stated in terms
	// of them (e.g. 1287/552 = 2.33x in §6.4).
	cases := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"TrapRing3", TrapRing3, 1287},
		{"ExceptionRing0", ExceptionRing0, 552},
		{"IPISendPosted", IPISendPosted, 298},
		{"IPISendVMExit", IPISendVMExit, 2081},
		{"Memcpy4KNoSIMD", Memcpy4KNoSIMD, 2400},
		{"Memcpy4KAVX2", Memcpy4KAVX2, 900},
		{"FPUSaveRestore", FPUSaveRestore, 300},
		{"VMExit", VMExit, 750},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("%s = %d, want %d", tc.name, tc.got, tc.want)
		}
	}
	// §6.4: trap from ring 3 is 2.33x the ring-0 exception.
	ratio := float64(TrapRing3) / float64(ExceptionRing0)
	if ratio < 2.3 || ratio > 2.4 {
		t.Errorf("trap/exception ratio = %.2f, want ~2.33", ratio)
	}
}

func TestMemcpyModel(t *testing.T) {
	// §3.3: AVX2 4KB copy with FPU save/restore ~1200 cycles, about 2x
	// faster than the 2400-cycle non-SIMD copy.
	avx := MemcpyAVX2(4096)
	if avx != 1200 {
		t.Errorf("AVX2 4K = %d, want 1200", avx)
	}
	plain := MemcpyNoSIMD(4096)
	if plain < 2400 || plain > 2401 {
		t.Errorf("non-SIMD 4K = %d, want ~2400", plain)
	}
	if MemcpyNoSIMD(0) != 0 || MemcpyAVX2(0) != 0 {
		t.Error("zero-length memcpy should be free")
	}
}

func TestCyclesConversion(t *testing.T) {
	if got := CyclesToMicros(2400); got != 1.0 {
		t.Errorf("2400 cycles = %v us, want 1", got)
	}
	if got := CyclesToSeconds(2_400_000_000); got != 1.0 {
		t.Errorf("2.4G cycles = %v s, want 1", got)
	}
}

func TestTLBLookupInsertInvalidate(t *testing.T) {
	tlb := NewTLB(16, 1)
	if tlb.Lookup(1, 100) {
		t.Fatal("empty TLB should miss")
	}
	tlb.Insert(1, 100)
	if !tlb.Lookup(1, 100) {
		t.Fatal("inserted entry should hit")
	}
	if tlb.Lookup(2, 100) {
		t.Fatal("different ASID should miss")
	}
	tlb.InvalidatePage(1, 100)
	if tlb.Lookup(1, 100) {
		t.Fatal("invalidated entry should miss")
	}
	hits, misses, _ := tlb.Stats()
	if hits != 1 || misses != 3 {
		t.Fatalf("stats hits=%d misses=%d, want 1/3", hits, misses)
	}
}

func TestTLBCapacityEviction(t *testing.T) {
	tlb := NewTLB(8, 1)
	for i := uint64(0); i < 100; i++ {
		tlb.Insert(1, i)
	}
	if tlb.Len() > 8 {
		t.Fatalf("TLB over capacity: %d", tlb.Len())
	}
}

func TestTLBFlushAll(t *testing.T) {
	tlb := NewTLB(8, 1)
	for i := uint64(0); i < 5; i++ {
		tlb.Insert(1, i)
	}
	tlb.FlushAll()
	if tlb.Len() != 0 {
		t.Fatalf("TLB not empty after flush: %d", tlb.Len())
	}
	_, _, flushes := tlb.Stats()
	if flushes != 1 {
		t.Fatalf("flushes = %d, want 1", flushes)
	}
}

func TestTLBSetShootdown(t *testing.T) {
	set := NewTLBSet(4, 16, 1)
	for i := 0; i < 4; i++ {
		set.CPU(i).Insert(1, 42)
	}
	set.InvalidatePageAll(1, 42)
	for i := 0; i < 4; i++ {
		if set.CPU(i).Lookup(1, 42) {
			t.Fatalf("cpu %d still has entry after shootdown", i)
		}
	}
}

func TestTLB2MCapacityAccounting(t *testing.T) {
	tlb := NewTLB(8, 1)
	tlb.SetCapacity2M(4)
	for i := uint64(0); i < 100; i++ {
		tlb.Insert2M(1, i)
	}
	if tlb.Len2M() > 4 {
		t.Fatalf("2M side over capacity: %d", tlb.Len2M())
	}
	// The split arrays account independently: filling the 2M side must not
	// consume 4K entries and vice versa.
	for i := uint64(0); i < 8; i++ {
		tlb.Insert(1, i)
	}
	if tlb.Len() != 8 || tlb.Len2M() != 4 {
		t.Fatalf("len4k=%d len2m=%d, want 8/4", tlb.Len(), tlb.Len2M())
	}
	// A just-inserted 2M entry is always resident and covers its whole extent.
	tlb.Insert2M(1, 7)
	for _, off := range []uint64{0, 4096, Default2MEntries * 4096, 1<<21 - 1} {
		if !tlb.LookupVA(1, 7<<21+off) {
			t.Fatalf("2M entry should cover offset %#x", off)
		}
	}
	if tlb.LookupVA(1, 8<<21) {
		t.Fatal("neighboring extent should miss")
	}
}

func TestTLB2MInvalidateOnShootdown(t *testing.T) {
	set := NewTLBSet(4, 16, 1)
	for i := 0; i < 4; i++ {
		set.CPU(i).Insert2M(1, 42)
	}
	// One shootdown slot invalidates the whole 2 MB mapping on every CPU.
	for i := 0; i < 4; i++ {
		set.CPU(i).Invalidate2M(1, 42)
	}
	for i := 0; i < 4; i++ {
		if set.CPU(i).Len2M() != 0 {
			t.Fatalf("cpu %d still has 2M entry after shootdown", i)
		}
		if set.CPU(i).LookupVA(1, 42<<21+12345) {
			t.Fatalf("cpu %d hit after shootdown", i)
		}
	}
	// FlushAll clears both sides.
	tlb := NewTLB(16, 1)
	tlb.Insert(1, 3)
	tlb.Insert2M(1, 3)
	tlb.FlushAll()
	if tlb.Len() != 0 || tlb.Len2M() != 0 {
		t.Fatalf("len4k=%d len2m=%d after FlushAll", tlb.Len(), tlb.Len2M())
	}
}

// Deterministic replacement with mixed page sizes: the same insert sequence
// leaves the same residency on two independently built TLBs, and the 4 KB
// side behaves identically to a TLB that never saw 2 MB inserts.
func TestTLBMixedSizeDeterministicReplacement(t *testing.T) {
	mixed1, mixed2 := NewTLB(8, 7), NewTLB(8, 7)
	plain := NewTLB(8, 7)
	mixed1.SetCapacity2M(4)
	mixed2.SetCapacity2M(4)
	for i := uint64(0); i < 300; i++ {
		vpn := (i * 2654435761) % 64
		mixed1.Insert(1, vpn)
		mixed2.Insert(1, vpn)
		plain.Insert(1, vpn)
		if i%3 == 0 {
			mixed1.Insert2M(1, vpn%16)
			mixed2.Insert2M(1, vpn%16)
		}
	}
	for vpn := uint64(0); vpn < 64; vpn++ {
		r1 := mixed1.Lookup(1, vpn)
		r2 := mixed2.Lookup(1, vpn)
		rp := plain.Lookup(1, vpn)
		if r1 != r2 {
			t.Fatalf("vpn %d: same sequence diverged (%v vs %v)", vpn, r1, r2)
		}
		if r1 != rp {
			t.Fatalf("vpn %d: 2M inserts perturbed the 4K side (%v vs %v)", vpn, r1, rp)
		}
	}
	for v := uint64(0); v < 16; v++ {
		if mixed1.Len2M() != mixed2.Len2M() {
			t.Fatal("2M residency counts diverged")
		}
		a := mixed1.LookupVA(2, v<<21) // asid 2: all misses, counter-only
		b := mixed2.LookupVA(2, v<<21)
		if a != b {
			t.Fatalf("2M vpn %d: residency diverged", v)
		}
	}
}

// LookupVA must be behaviorally identical to Lookup while no 2 MB entries are
// resident, so the runtime can use it unconditionally without perturbing the
// 4 KB-only goldens.
func TestLookupVAMatchesLookupWithout2M(t *testing.T) {
	a, b := NewTLB(8, 3), NewTLB(8, 3)
	for i := uint64(0); i < 200; i++ {
		vpn := (i * 11400714819323198485) % 32
		a.Insert(1, vpn)
		b.Insert(1, vpn)
		probe := (i * 2654435761) % 32
		ra := a.Lookup(1, probe)
		rb := b.LookupVA(1, probe<<12+uint64(i)%4096)
		if ra != rb {
			t.Fatalf("op %d: Lookup=%v LookupVA=%v", i, ra, rb)
		}
	}
	ah, am, _ := a.Stats()
	bh, bm, _ := b.Stats()
	if ah != bh || am != bm {
		t.Fatalf("stats diverged: %d/%d vs %d/%d", ah, am, bh, bm)
	}
}

// Property: TLB never exceeds capacity and a just-inserted entry is always
// resident.
func TestTLBCapacityProperty(t *testing.T) {
	check := func(vpns []uint16) bool {
		tlb := NewTLB(32, 1)
		for _, v := range vpns {
			tlb.Insert(1, uint64(v))
			if tlb.Len() > 32 {
				return false
			}
			if !tlb.Lookup(1, uint64(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
