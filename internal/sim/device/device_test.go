package device

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func TestStoreReadBackWhatWasWritten(t *testing.T) {
	s := NewStore(1 << 20)
	data := []byte("hello, persistent world")
	s.WriteAt(12345, data)
	got := make([]byte, len(data))
	s.ReadAt(12345, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %q, want %q", got, data)
	}
}

func TestStoreUnwrittenReadsZero(t *testing.T) {
	s := NewStore(1 << 20)
	buf := make([]byte, 100)
	for i := range buf {
		buf[i] = 0xff
	}
	s.ReadAt(5000, buf)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

func TestStoreCrossBlockAccess(t *testing.T) {
	s := NewStore(1 << 20)
	data := make([]byte, 3*BlockSize)
	for i := range data {
		data[i] = byte(i % 251)
	}
	off := uint64(BlockSize - 100) // straddles block boundaries
	s.WriteAt(off, data)
	got := make([]byte, len(data))
	s.ReadAt(off, got)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-block write/read mismatch")
	}
}

func TestStoreOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := NewStore(4096)
	s.ReadAt(4000, make([]byte, 200))
}

// The block table is bounded where the maps it replaced were not: whatever
// names a block past the capacity — an access whose end wraps around 2^64, a
// crash image from a larger device — is refused with the out-of-range panic,
// and nothing that only looks (a page read, a Persist, a Discard, however
// large their ranges) sizes the table's directory by what it was asked.
func TestStoreRefusesBlocksPastCapacity(t *testing.T) {
	const capacity = 3*BlockSize + 100 // the last block is partial
	panicOf := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return "no panic"
	}
	s := NewStore(capacity)
	s.WriteAt(3*BlockSize, make([]byte, 100)) // the partial block is the device's
	for _, tc := range []struct {
		name string
		f    func()
		want string
	}{
		{"read past the end", func() { s.ReadAt(capacity-1, make([]byte, 2)) },
			"device: access [12387, 12389) beyond capacity 12388"},
		{"write at the end", func() { s.WriteAt(capacity, []byte{1}) },
			"device: access [12388, 12389) beyond capacity 12388"},
		{"write whose end wraps", func() { s.WriteAt(^uint64(0)-1, make([]byte, 8)) },
			"device: access [18446744073709551614, 6) beyond capacity 12388"},
		{"read whose end wraps", func() { s.ReadAt(^uint64(0)-BlockSize+1, make([]byte, BlockSize)) },
			"device: access [18446744073709547520, 0) beyond capacity 12388"},
		{"image of a larger device", func() { s.AdoptMedia(map[uint64][]byte{1 << 40: make([]byte, BlockSize)}) },
			"device: access [4503599627370496, 4503599627374592) beyond capacity 12388"},
	} {
		if got := panicOf(tc.f); got != tc.want {
			t.Errorf("%s: %q, want %q", tc.name, got, tc.want)
		}
	}
	s = NewStore(capacity)
	s.WriteAt(0, make([]byte, BlockSize))
	if s.ReadPage(BlockSize<<40, nil) {
		t.Error("page read far past the capacity found a block")
	}
	s.Persist(0, 1<<62, 7)
	s.Discard(BlockSize, ^uint64(0)-BlockSize)
	s.settle(7)
	if len(s.tab) != 1 || s.ResidentBlocks() != 1 || s.PendingBlocks() != 0 {
		t.Fatalf("table of %d chunks, %d resident and %d pending blocks; want 1, 1 and 0", len(s.tab), s.ResidentBlocks(), s.PendingBlocks())
	}
}

func TestStoreDiscard(t *testing.T) {
	s := NewStore(1 << 20)
	s.WriteAt(0, make([]byte, 4*BlockSize))
	if s.ResidentBlocks() != 4 {
		t.Fatalf("resident = %d, want 4", s.ResidentBlocks())
	}
	s.Discard(BlockSize, 2*BlockSize)
	if s.ResidentBlocks() != 2 {
		t.Fatalf("resident after discard = %d, want 2", s.ResidentBlocks())
	}
}

func TestNVMeLatencyAndIOPSCap(t *testing.T) {
	cfg := DefaultNVMeConfig()
	d := NewNVMe(1<<30, cfg)
	// A single idle 4K op completes after ReadLatency.
	c := d.Submit(0, 4096, false)
	if c != cfg.ReadLatency {
		t.Fatalf("idle completion = %d, want %d", c, cfg.ReadLatency)
	}
	// A burst of ops at t=0 completes spaced by the service interval.
	var last uint64
	for i := 0; i < 10; i++ {
		last = d.Submit(0, 4096, false)
	}
	// 11 ops total: the 11th starts service at 10*interval.
	want := 10*cfg.ServiceInterval + cfg.ReadLatency
	if last != want {
		t.Fatalf("queued completion = %d, want %d", last, want)
	}
}

func TestNVMeBandwidthCap(t *testing.T) {
	cfg := DefaultNVMeConfig()
	d := NewNVMe(1<<30, cfg)
	// A 1 MB transfer is bandwidth-bound: service = 1 MB * cycles/byte.
	big := 1 << 20
	d.Submit(0, big, false)
	c := d.Submit(0, 4096, false)
	wantStart := uint64(float64(big) * cfg.CyclesPerByte)
	if c != wantStart+cfg.ReadLatency {
		t.Fatalf("after big op completion = %d, want %d", c, wantStart+cfg.ReadLatency)
	}
}

func TestNVMeIdleGapResetsQueue(t *testing.T) {
	cfg := DefaultNVMeConfig()
	d := NewNVMe(1<<30, cfg)
	d.Submit(0, 4096, false)
	// Submit long after the device drained: no queueing delay.
	c := d.Submit(1_000_000, 4096, false)
	if c != 1_000_000+cfg.ReadLatency {
		t.Fatalf("post-idle completion = %d, want %d", c, 1_000_000+cfg.ReadLatency)
	}
}

func TestPMemSynchronousTiming(t *testing.T) {
	d := NewPMem(1<<20, DefaultPMemConfig())
	if c := d.Submit(1000, 4096, false); c != 1000 {
		t.Fatalf("DRAM-backed pmem completion = %d, want 1000 (free media)", c)
	}
	o := NewPMem(1<<20, OptanePMMConfig())
	c := o.Submit(0, 4096, false)
	want := o.AccessCycles(4096)
	if c != want || want <= 720 {
		t.Fatalf("optane pmem completion = %d, want %d (>720)", c, want)
	}
}

func TestStats(t *testing.T) {
	s := NewStore(1 << 20)
	s.WriteAt(0, make([]byte, 100))
	s.ReadAt(0, make([]byte, 50))
	st := s.Stats()
	if st.Writes != 1 || st.Reads != 1 || st.BytesWritten != 100 || st.BytesRead != 50 {
		t.Fatalf("stats = %+v", st)
	}
}

// Property: for random write/read sequences the store behaves like a flat
// byte array.
func TestStoreMatchesFlatArray(t *testing.T) {
	const size = 4 * BlockSize
	type op struct {
		Off  uint16
		Data []byte
	}
	check := func(ops []op) bool {
		s := NewStore(size)
		ref := make([]byte, size)
		for _, o := range ops {
			off := uint64(o.Off) % (size - 256)
			data := o.Data
			if len(data) > 256 {
				data = data[:256]
			}
			s.WriteAt(off, data)
			copy(ref[off:], data)
			got := make([]byte, 256)
			s.ReadAt(off, got)
			if !bytes.Equal(got, ref[off:off+256]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNVMeCompletionsMonotonicProperty(t *testing.T) {
	check := func(gaps []uint8, sizes []uint8) bool {
		d := NewNVMe(1<<30, DefaultNVMeConfig())
		var now, lastStart uint64
		for i, g := range gaps {
			now += uint64(g) * 100
			sz := 512
			if i < len(sizes) {
				sz = (int(sizes[i]) + 1) * 512
			}
			c := d.Submit(now, sz, i%2 == 0)
			if c < now {
				return false // completion before submission
			}
			start := c - d.cfg.ReadLatency
			if i%2 != 0 {
				start = c - d.cfg.WriteLatency
			}
			_ = start
			if c < lastStart {
				return false
			}
			lastStart = start
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReadPage(t *testing.T) {
	s := NewStore(1 << 20)
	page := make([]byte, BlockSize)
	calls := 0
	dst := func(held []byte) { calls++; clear(page[copy(page, held):]) }
	// A hole is not a device read: nothing counted, no buffer asked for.
	if s.ReadPage(8192, dst) || calls != 0 || s.Stats() != (Stats{}) {
		t.Fatalf("hole: filled or counted: calls %d stats %+v", calls, s.Stats())
	}
	// One byte anywhere in the block materializes it; the staged (not yet
	// durable) version is what a fill sees, counted as ReadAt counts it.
	s.WriteAt(10000, []byte{7})
	before := s.Stats()
	if !s.ReadPage(8192, dst) || calls != 1 || page[10000-8192] != 7 {
		t.Fatalf("written block: not filled (calls %d)", calls)
	}
	if st := s.Stats(); st.Reads != before.Reads+1 || st.BytesRead != before.BytesRead+BlockSize {
		t.Fatalf("written block: stats %+v after %+v", st, before)
	}
	want := make([]byte, BlockSize)
	s.ReadAt(8192, want)
	if !bytes.Equal(page, want) {
		t.Fatal("ReadPage and ReadAt disagree")
	}
	if s.ReadPage(4096, dst) || s.ReadPage(12288, dst) {
		t.Fatal("neighbours of the written block report content")
	}
	defer func() {
		if recover() == nil {
			t.Error("unaligned page read did not panic")
		}
	}()
	s.ReadPage(100, dst)
}
