package cachetest

import (
	"encoding/binary"
	"runtime"
	"testing"

	"aquila/internal/sim/mem"
)

// Allocated runs f and returns how many heap objects and bytes it allocated.
func Allocated(f func()) (objects, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// PayloadLines counts the frames of a whose payload holds a buffer.
func PayloadLines(a *mem.Allocator) (n uint64) {
	for id := range a.Capacity() {
		if f := a.Frame(id); f != nil && cap(f.Held()) > 0 {
			n++
		}
	}
	return n
}

// linePages bounds the pages a pool carves for n new 64-byte lines, 64 to a
// page: at most one per 64 lines begun, and one fewer when the remainder the
// pool carried into the window covers the lines that spill over — or a
// hundredth fewer lines, when a few take a line a rewritten block gave back.
func linePages(n uint64) (lo, hi uint64) {
	const perPage = mem.PageSize / mem.LineSize
	return (n - n/100) / perPage, (n + perPage - 1) / perPage
}

// WarmPayloadPass is the payload work of a world's evict and write-back
// cycle done over every frame of a that holds a payload: a fill from a dense block and one from a block holding one
// stamped line, the stamp stored and read, a hole-fill. Once each frame has
// been through it, it allocates nothing: a frame keeps its buffer, and one it
// outgrows or leaves goes to its allocator's class lists for the next frame.
func WarmPayloadPass(a *mem.Allocator) float64 {
	dense, line := make([]byte, mem.PageSize), make([]byte, mem.LineSize)
	for i := range dense {
		dense[i] = byte(i) | 1
	}
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], 0x5A5A_0000_0000_0001)
	copy(line, word[:])
	return testing.AllocsPerRun(3, func() {
		for id := range a.Capacity() {
			if f := a.Frame(id); f != nil && f.HasData() {
				f.Load(dense)
				f.Load(line)
				f.WriteAt(8, word[:])
				f.ReadAt(word[:], 8)
				f.Reset()
			}
		}
	})
}

// Cycle is what the measured stretch of a world's fault → evict →
// write-back cycle did and allocated.
type Cycle struct {
	Pages, Written, Blocks uint64 // pages brought in, pages written back, device blocks written for the first time
	Lined                  uint64 // frames whose payload took its first buffer
	Objects, Bytes         uint64
	Warm                   float64 // allocations of WarmPayloadPass over the same frames
}

// CycleAllocations holds a world's fault → evict → write-back cycle to its
// budget. run measures the cycle storing an 8-byte stamp; the same cycle
// storing zeros holds the payloads' bytes to account. N pages brought in cost
// N page records plus the pages the content pools carve in the window (a
// first-written block that carries a stamp is one 64-byte line, and so is a
// frame whose payload takes its first buffer, linePages of them), and what
// amortizes is allowed one allocation per amortized pages. A block written
// back all zeros, and a frame that only ever held zeros, cost nothing; a warm
// pass of payload work over the same frames allocates nothing at all.
func CycleAllocations(t *testing.T, run func(stamp uint64) Cycle, amortized uint64) {
	// Each count is the least of three runs: now and then the runtime's own
	// work allocates inside the window.
	least := func(stamp uint64) Cycle {
		c := run(stamp)
		for range 2 {
			d := run(stamp)
			c.Objects, c.Bytes = min(c.Objects, d.Objects), min(c.Bytes, d.Bytes)
		}
		return c
	}
	c, zero := least(0x5A5A_0000_0000_0001), least(0)
	if c.Pages != zero.Pages || c.Written != zero.Written || c.Blocks != zero.Blocks {
		t.Fatalf("the stamp moved the cycle: %+v, all zeros %+v", c, zero)
	}
	blo, bhi := linePages(c.Blocks)
	llo, lhi := linePages(c.Lined)
	lo, hi := blo+llo, bhi+lhi
	if c.Objects < c.Pages+lo || c.Objects > c.Pages+hi+c.Pages/amortized {
		t.Errorf("%d pages brought in, %d first-written device blocks and %d frames given their first line made %d allocations, want %d to %d",
			c.Pages, c.Blocks, c.Lined, c.Objects, c.Pages+lo, c.Pages+hi+c.Pages/amortized)
	}
	if z := zero; z.Objects < z.Pages || z.Objects > z.Pages+z.Pages/amortized {
		t.Errorf("all zeros: %d pages brought in made %d allocations, want %d to %d: the %d first-written blocks or %d lined frames cost something",
			z.Pages, z.Objects, z.Pages, z.Pages+z.Pages/amortized, z.Blocks, z.Lined)
	}
	if zero.Lined != 0 {
		t.Errorf("all zeros: %d frames took a payload buffer, want none", zero.Lined)
	}
	if d := int64(c.Bytes - zero.Bytes); d < int64(lo*mem.PageSize) || d > int64(hi*mem.PageSize) {
		t.Errorf("the stamp cost %d bytes for %d first-written blocks and %d frames given their first line, want a 4 KB page per 64 of them: %d to %d",
			d, c.Blocks, c.Lined, lo*mem.PageSize, hi*mem.PageSize)
	}
	if c.Warm != 0 || zero.Warm != 0 {
		t.Errorf("a warm pass of payload work over the cycle's frames made %v allocations (all zeros: %v), want 0", c.Warm, zero.Warm)
	}
}
