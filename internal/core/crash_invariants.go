package core

import "fmt"

// CheckCrashInvariants audits the runtime state reachable at an *arbitrary*
// crash point — the complement of CheckInvariants, which demands a quiescent
// runtime. A crash may land anywhere a page's state says it may be: filling
// (event armed, frame perhaps not yet allocated), claimed by an eviction, or
// displaced by a promotion (out of the index); and frames may be owned by
// neither the freelist nor any page (in transit through a fault path's local
// variables). What can never be true, crash or not:
//
//   - a cached page not as its state's row in the lifecycle table says —
//     busy while filling or claimed and only then, framed unless filling,
//     listed in the LRU as the row allows (auditPages),
//   - a region on its file's list that is not in the address space, or one
//     in the address space on no list (the reverse map would miss its PTEs),
//   - a frame owned twice (two pages, a page and a free queue, two queues),
//   - more frames accounted for than were ever granted,
//   - a hash entry filed under the wrong key,
//   - a core's dirty count that is not the number of cached pages its stores
//     left dirty (the transition function moves state and count together).
func (rt *Runtime) CheckCrashInvariants() error {
	owner := make(map[uint64]string)
	claim := func(id uint64, who string) error {
		if prev, ok := owner[id]; ok {
			return fmt.Errorf("frame %d owned twice: %s and %s", id, prev, who)
		}
		owner[id] = who
		return nil
	}
	for _, q := range rt.fl.queues() {
		for _, fr := range q.frames {
			if err := claim(fr.ID, q.name); err != nil {
				return err
			}
		}
	}
	if free := rt.fl.Free(); free < 0 {
		return fmt.Errorf("freelist negative: %d", free)
	}
	err := rt.auditPages(func(pg *Page) error {
		if pg.frame == nil {
			return nil
		}
		who := fmt.Sprintf("page (%s,%d)", pg.file.name, pg.idx)
		if !pg.huge {
			return claim(pg.frame.ID, who)
		}
		for i := range hugePages {
			if err := claim(pg.frame.BlockFrame(i).ID, who); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if uint64(len(owner)) > rt.limitPages {
		return fmt.Errorf("%d frames accounted > limit %d", len(owner), rt.limitPages)
	}
	return nil
}

// WBErrorSnapshot returns, per file name, the latest writeback error no sync
// caller has observed yet — the errseq state a crash image must carry so
// exactly-once error reporting survives a restart (Config.RestoredWBErrors
// replays it into the recovered runtime).
func (rt *Runtime) WBErrorSnapshot() map[string]error {
	var out map[string]error
	//aqlint:sorted -- host-side snapshot into a map; insertion order invisible
	for name, f := range rt.files {
		if f.wbErr.err != nil && !f.wbErr.seen {
			if out == nil {
				out = make(map[string]error)
			}
			out[name] = f.wbErr.err
		}
	}
	return out
}
