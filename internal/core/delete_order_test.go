package core

import (
	"fmt"
	"testing"

	"aquila/internal/sim/engine"
)

// TestDeleteFileRecycleOrderDeterministic pins the fix for a map-order leak
// the maporder analyzer found: DeleteFile used to walk a Go map of all cached
// pages to collect the file's, so the order frames were pushed back onto the
// freelist followed Go's randomized map iteration. Frames recycled in random
// order hand different frame IDs to the next file's faults, and the divergence
// spreads from there. The file's page index walks in index order; two
// identical worlds must fault the successor file onto identical frames.
func TestDeleteFileRecycleOrderDeterministic(t *testing.T) {
	const pages = 32
	run := func() string {
		e, _, boot := daxWorld(16*mib, 2)
		var fingerprint string
		e.Spawn(0, "t", func(p *engine.Proc) {
			rt := boot(p)
			doomed := rt.CreateFile(p, "doomed", pages*pageSize)
			m := rt.Mmap(p, doomed, pages*pageSize)
			buf := make([]byte, 8)
			for i := uint64(0); i < pages; i++ {
				m.Load(p, i*pageSize, buf)
			}
			m.Munmap(p)
			rt.DeleteFile(p, "doomed")

			// The successor faults its pages onto the frames DeleteFile just
			// recycled; its frame-ID sequence is the recycle order.
			next := rt.CreateFile(p, "next", pages*pageSize)
			m2 := rt.Mmap(p, next, pages*pageSize)
			for i := uint64(0); i < pages; i++ {
				m2.Load(p, i*pageSize, buf)
			}
			for i := uint64(0); i < pages; i++ {
				pg := next.pages.Get(i)
				if pg == nil || pg.frame == nil {
					t.Errorf("page %d of successor file not resident", i)
					return
				}
				fingerprint += fmt.Sprintf("%d,", pg.frame.ID)
			}
			fingerprint += fmt.Sprintf("now=%d", p.Now())
		})
		e.Run()
		return fingerprint
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("frame recycle order diverged across identical runs:\n run1 %s\n run2 %s", a, b)
	}
	if a == "" {
		t.Fatal("workload produced no fingerprint")
	}
}

// BenchmarkDeleteFile24kPages is fault-cold-32t's round end: a 96 MB file,
// every page cached and unmapped, deleted. Only the delete is timed.
func BenchmarkDeleteFile24kPages(b *testing.B) {
	const pages = 24576
	e, _, boot := daxWorld(128*mib, 2)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		buf := make([]byte, 8)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			f := rt.CreateFile(p, "round", pages*pageSize)
			m := rt.Mmap(p, f, pages*pageSize)
			for pg := uint64(0); pg < pages; pg++ {
				m.Load(p, pg*pageSize, buf)
			}
			m.Munmap(p)
			b.StartTimer()
			rt.DeleteFile(p, "round")
		}
	})
	e.Run()
}

// BenchmarkMunmap24kPages is fault-cold-32t's per-round munmap: a 96 MB
// mapping with every page faulted in, 24 K live PTEs, unmapped. Only the
// munmap is timed; its msync finds nothing dirty.
func BenchmarkMunmap24kPages(b *testing.B) {
	const pages = 24576
	e, _, boot := daxWorld(128*mib, 2)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		buf := make([]byte, 8)
		f := rt.CreateFile(p, "round", pages*pageSize)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m := rt.Mmap(p, f, pages*pageSize)
			for pg := uint64(0); pg < pages; pg++ {
				m.Load(p, pg*pageSize, buf)
			}
			b.StartTimer()
			m.Munmap(p)
		}
	})
	e.Run()
}
