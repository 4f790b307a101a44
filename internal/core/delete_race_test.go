package core

import (
	"testing"

	"aquila/internal/sim/engine"
)

// Regression: DeleteFile waited out its file's busy pages once, then dropped
// them one charge at a time, and an eviction running meanwhile could claim a
// page that was waited out or not yet dropped: the delete recycled its frame
// and so did the eviction (the audit found resident 248 + free 783 != limit
// 1024). Four threads fault another file through a small
// cache, evicting eight pages at a time so that rounds come often, while a
// fifth deletes the file whose pages the evictions are taking, oldest first.
func TestDeleteRacingEvictionRecyclesEachFrameOnce(t *testing.T) {
	const doomedPages, otherPages, faulters = 896, 4096, 4
	ps := DefaultParams()
	ps.EvictBatch = 8
	e, _, boot := faultDaxWorld(4*mib, faulters+1, &ps)
	var rt *Runtime
	var other *fileState
	e.Spawn(0, "setup", func(p *engine.Proc) {
		rt = boot(p)
		doomed := rt.CreateFile(p, "doomed", doomedPages*pageSize)
		other = rt.CreateFile(p, "other", otherPages*pageSize)
		m := rt.Mmap(p, doomed, doomedPages*pageSize)
		for i := uint64(0); i < doomedPages; i++ {
			m.Store(p, i*pageSize, []byte{1})
		}
		m.Munmap(p)
	})
	e.Run()
	for c := 0; c < faulters; c++ {
		e.Spawn(c, "fault", func(p *engine.Proc) {
			m := rt.Mmap(p, other, otherPages*pageSize)
			var buf [8]byte
			for i := uint64(c); i < otherPages; i += faulters {
				m.Load(p, i*pageSize, buf[:])
			}
		})
	}
	e.Spawn(faulters, "delete", func(p *engine.Proc) {
		for rt.Stats.Evictions == 0 {
			p.WaitUntil(p.Now()+200, engine.KindIOWait)
		}
		rt.DeleteFile(p, "doomed")
	})
	e.Run()
	if rt.Stats.Evictions == 0 {
		t.Fatal("nothing evicted: not the race")
	}
	if err := rt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := rt.CheckCrashInvariants(); err != nil {
		t.Fatal(err)
	}
}
