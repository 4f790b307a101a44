package core

import (
	"math/rand"
	"testing"

	"aquila/internal/detutil"
	"aquila/internal/sim/engine"
)

func TestVSpaceInsertFindRemove(t *testing.T) {
	var vs detutil.RangeSet[*Region]
	f := &fileState{id: 1, name: "f"}
	r := &Region{Start: 1 << 30, End: 1<<30 + 64*pageSize, File: f}
	vs.Insert(r)
	if got := vs.Find(1<<30 + 5*pageSize + 7); got != r {
		t.Fatal("find inside region failed")
	}
	if got := vs.Find(1<<30 - 1); got != nil {
		t.Fatal("find before region succeeded")
	}
	if got := vs.Find(1<<30 + 64*pageSize); got != nil {
		t.Fatal("find past region succeeded")
	}
	vs.Remove(r)
	if got := vs.Find(1<<30 + 5*pageSize); got != nil {
		t.Fatal("find after remove succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an empty region went in")
		}
	}()
	vs.Insert(&Region{Start: 1 << 30, End: 1 << 30, File: f})
}

func TestVSpaceMultipleRegions(t *testing.T) {
	var vs detutil.RangeSet[*Region]
	var regions []*Region
	for i := uint64(0); i < 20; i++ {
		r := &Region{
			Start: 1<<40 + i*1000*pageSize,
			End:   1<<40 + i*1000*pageSize + 100*pageSize,
			File:  &fileState{id: i},
		}
		regions = append(regions, r)
	}
	// Any insertion order ends sorted.
	for _, i := range rand.New(rand.NewSource(1)).Perm(len(regions)) {
		vs.Insert(regions[i])
	}
	if len(vs.List()) != 20 {
		t.Fatalf("len = %d", len(vs.List()))
	}
	for i, r := range regions {
		if vs.List()[i] != r {
			t.Fatalf("region %d is not at %d", i, i)
		}
		if vs.Find(r.Start+50*pageSize) != r {
			t.Fatalf("region %d not found", i)
		}
		// Gaps between regions are unmapped.
		if vs.Find(r.End+pageSize) != nil {
			t.Fatalf("gap after region %d mapped", i)
		}
	}
}

// TestVSpaceMatchesLinearScan drives seeded Mmap / Mremap-shrink /
// Mremap-grow / Munmap sequences through the runtime and holds every lookup
// of the address space against a linear scan over the live mappings' regions:
// the addresses probed are each region's first and last byte, the bytes just
// outside it, and the guard gap a relocated region left behind.
func TestVSpaceMatchesLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		e, _, boot := daxWorld(4*mib, 1)
		e.Spawn(0, "t", func(p *engine.Proc) {
			rt := boot(p)
			f := rt.CreateFile(p, "data", 64*pageSize)
			rng := rand.New(rand.NewSource(seed))
			var live []*AqMapping
			probes := []uint64{0, rt.nextVA - 1}
			scan := func(va uint64) *Region {
				for _, m := range live {
					if m.r.Start <= va && va < m.r.End {
						return m.r
					}
				}
				return nil
			}
			for step := 0; step < 400; step++ {
				switch k := rng.Intn(8); {
				case k < 3 || len(live) == 0:
					live = append(live, rt.Mmap(p, f, uint64(1+rng.Intn(64))*pageSize))
				case k < 6:
					// Shrinks stay in place, grows move to fresh addresses.
					live[rng.Intn(len(live))].Mremap(p, uint64(1+rng.Intn(64))*pageSize)
				default:
					i := rng.Intn(len(live))
					live[i].Munmap(p)
					live = append(live[:i], live[i+1:]...)
				}
				for _, m := range live {
					probes = append(probes, m.r.Start-1, m.r.Start, m.r.End-1, m.r.End)
				}
				if len(probes) > 4096 {
					probes = probes[len(probes)-4096:]
				}
				for _, va := range probes {
					if got, want := rt.vs.Find(va), scan(va); got != want {
						t.Fatalf("seed %d step %d: Find(%#x) = %v, the scan says %v", seed, step, va, got, want)
					}
				}
				if got := len(rt.vs.List()); got != len(live) {
					t.Fatalf("seed %d step %d: %d regions for %d live mappings", seed, step, got, len(live))
				}
			}
		})
		e.Run()
	}
}
