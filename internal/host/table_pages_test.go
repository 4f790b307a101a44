package host

import (
	"testing"

	"aquila/internal/sim/engine"
)

// A munmap frees the page-table pages its span emptied, as Linux's
// free_pgtables does: after every page of a mapping is faulted and the
// mapping unmapped, the process's table holds as many pages as before the
// mmap. An mremap that moves the mapping frees the old range's pages the
// same way, so the munmap after it does too.
func TestMunmapReleasesTablePages(t *testing.T) {
	const pages = 2048 // four last-level table pages
	e, os := newPMemOS(4 * pages * PageSize)
	run1(e, func(p *engine.Proc) {
		f := os.FS.Create(p, "data", 2*pages*PageSize)
		pt := os.DefaultProcess().PT
		before := pt.Pages()
		for _, grow := range []bool{false, true} {
			m := os.Mmap(p, f, pages*PageSize)
			var buf [8]byte
			for i := uint64(0); i < pages; i++ {
				m.Load(p, i*PageSize, buf[:])
			}
			if pt.Pages() <= before {
				t.Fatalf("faulting %d pages left %d table pages, as many as before the mmap", pages, pt.Pages())
			}
			if grow {
				m.Mremap(p, 2*pages*PageSize)
			}
			m.Munmap(p)
			if got := pt.Pages(); got != before {
				t.Errorf("mremap %v: %d table pages after munmap, want %d as before the mmap", grow, got, before)
			}
			if pt.Mapped() != 0 {
				t.Errorf("mremap %v: %d PTEs still mapped after munmap", grow, pt.Mapped())
			}
		}
		if err := os.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// Reclaim unmaps page by page and frees no table page, so the refault of an
// evicted mapping finds its table pages where they were. One page per 2 MB
// is touched, and the first passes shrink read-around to that page, so a
// table page allocated again per refault would double the allocations of a
// cycle whose only objects are the page records.
func TestEvictRefaultKeepsTablePages(t *testing.T) {
	const span = 64 * mib
	e, os := newPMemOS(16 * mib)
	run1(e, func(p *engine.Proc) {
		f := os.FS.Create(p, "data", span)
		pt := os.DefaultProcess().PT
		m := os.Mmap(p, f, span)
		var buf [8]byte
		records, passes := uint64(0), 0
		cycle := func() {
			for f.pages.Len() > 0 {
				os.Cache.reclaim(p)
			}
			inserted := os.Cache.Inserted
			for off := uint64(0); off < span; off += 2 * mib {
				m.Load(p, off, buf[:])
			}
			records += os.Cache.Inserted - inserted
			passes++
		}
		for range 4 {
			cycle()
		}
		tables, mapped := pt.Pages(), pt.Mapped()
		records, passes = 0, 0
		got := testing.AllocsPerRun(5, cycle)
		if per := records / uint64(passes); per != span/(2*mib) || pt.Mapped() != mapped {
			t.Fatalf("%d pages inserted per refault pass and %d PTEs mapped after it, want %d and %d", per, pt.Mapped(), span/(2*mib), mapped)
		}
		if want := float64(records / uint64(passes)); got < want || got > want+2 {
			t.Errorf("evicting and refaulting %v pages made %v allocations, want one page record each", want, got)
		}
		if pt.Pages() != tables {
			t.Errorf("%d table pages after evict and refault, want %d", pt.Pages(), tables)
		}
		if err := os.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// A cache shrink's ReclaimRegion frees the EPT table pages its grant used.
func TestReclaimRegionReleasesEPTPages(t *testing.T) {
	e, os := newPMemOS(16 * mib)
	run1(e, func(p *engine.Proc) {
		before := os.HV.ept.Pages()
		gpa := uint64(4 << 30)
		os.HV.GrantRegion(p, gpa, 2<<30)
		if os.HV.ept.Pages() <= before {
			t.Fatalf("a 2 GB grant left %d EPT table pages, as many as before it", os.HV.ept.Pages())
		}
		os.HV.ReclaimRegion(p, gpa, 2<<30)
		if got := os.HV.ept.Pages(); got != before {
			t.Errorf("%d EPT table pages after ReclaimRegion, want %d as before the grant", got, before)
		}
		if os.HV.ept.Mapped() != 0 {
			t.Errorf("%d EPT entries still mapped", os.HV.ept.Mapped())
		}
	})
}
