package core

import (
	"testing"

	"aquila/internal/sim/engine"
)

// A munmap frees the page-table pages its span emptied, as Linux's
// free_pgtables does: after every page of a mapping is faulted and the
// mapping unmapped, the table holds as many pages as before the mmap. An
// mremap that moves the mapping frees the old range's pages the same way, so
// the munmap after it does too. With huge pages on, the promoted extents
// leave an emptied 4 KB table page under each 2 MB entry, and those go too.
func TestMunmapReleasesTablePages(t *testing.T) {
	const pages = 2048 // four last-level table pages
	for _, c := range []struct {
		name string
		boot func() (*engine.Engine, func(p *engine.Proc) *Runtime)
	}{
		{"4k", func() (*engine.Engine, func(p *engine.Proc) *Runtime) {
			e, _, boot := daxWorld(4*pages*pageSize, 2)
			return e, boot
		}},
		{"huge", func() (*engine.Engine, func(p *engine.Proc) *Runtime) {
			return hugeWorld(4*pages*pageSize, 2, 0.5)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, boot := c.boot()
			e.Spawn(0, "t", func(p *engine.Proc) {
				rt := boot(p)
				f := rt.CreateFile(p, "data", 2*pages*pageSize)
				before := rt.PT.Pages()
				for _, grow := range []bool{false, true} {
					m := rt.Mmap(p, f, pages*pageSize)
					var buf [8]byte
					for i := uint64(0); i < pages; i++ {
						m.Load(p, i*pageSize, buf[:])
					}
					if c.name == "huge" && rt.Stats.HugePromotions == 0 {
						t.Fatal("no extent was promoted")
					}
					if rt.PT.Pages() <= before {
						t.Fatalf("faulting %d pages left %d table pages, as many as before the mmap", pages, rt.PT.Pages())
					}
					if grow {
						m.Mremap(p, 2*pages*pageSize)
					}
					m.Munmap(p)
					if got := rt.PT.Pages(); got != before {
						t.Errorf("mremap %v: %d table pages after munmap, want %d as before the mmap", grow, got, before)
					}
					if rt.PT.Mapped() != 0 {
						t.Errorf("mremap %v: %d PTEs still mapped after munmap", grow, rt.PT.Mapped())
					}
				}
				if err := rt.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
			e.Run()
		})
	}
}

// Reclaim unmaps page by page and frees no table page, so the refault of an
// evicted mapping finds its table pages where they were: one page per 2 MB
// is touched, so a table page allocated again per refault would double the
// allocations of a cycle whose only objects are the page records.
func TestEvictRefaultKeepsTablePages(t *testing.T) {
	const span = 64 * mib
	e, _, boot := daxWorld(16*mib, 2)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		f := rt.CreateFile(p, "data", span)
		m := rt.Mmap(p, f, span)
		var buf [8]byte
		faults, passes := uint64(0), 0
		cycle := func() {
			for f.pages.Len() > 0 {
				if err := rt.evict(p); err != nil {
					t.Fatal(err)
				}
			}
			major := rt.Stats.MajorFaults
			for off := uint64(0); off < span; off += 2 * mib {
				m.Load(p, off, buf[:])
			}
			faults += rt.Stats.MajorFaults - major
			passes++
		}
		cycle()
		tables, mapped := rt.PT.Pages(), rt.PT.Mapped()
		faults, passes = 0, 0
		got := testing.AllocsPerRun(5, cycle)
		if per := faults / uint64(passes); per != span/(2*mib) || rt.PT.Mapped() != mapped {
			t.Fatalf("%d major faults per refault pass and %d PTEs mapped after it, want %d and %d", per, rt.PT.Mapped(), span/(2*mib), mapped)
		}
		if want := float64(faults / uint64(passes)); got < want || got > want+2 {
			t.Errorf("evicting and refaulting %v pages made %v allocations, want one page record each", want, got)
		}
		if rt.PT.Pages() != tables {
			t.Errorf("%d table pages after evict and refault, want %d", rt.PT.Pages(), tables)
		}
		if err := rt.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
	e.Run()
}
