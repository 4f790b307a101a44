package core

import "fmt"

// CheckCrashInvariants audits the runtime state reachable at an *arbitrary*
// crash point — the complement of CheckInvariants, which demands a quiescent
// runtime. A crash may land between an allocation's freelist pop and the
// page attach, mid-fill (placeholder io event unfired), or mid-eviction
// (victims non-resident but still hashed), so this audit tolerates:
//
//   - pages with in-flight (unfired) io events,
//   - non-resident pages still present in the hash,
//   - pages without a frame (claimed by eviction, not yet recycled),
//   - frames owned by neither the freelist nor any page (in transit through
//     a fault path's local variables).
//
// What can never be true, crash or not:
//
//   - a hashed page in one of those in-between states — claimed by eviction
//     (non-resident) or not yet backed by a frame — that is not busy: its
//     event armed and unfired is what makes faulters wait instead of mapping
//     it, and arm, state change and publish happen with no yield between,
//   - a page with at most one mapping keeping it outside its own slot,
//   - a frame owned twice (two pages, a page and a free queue, two queues),
//   - more frames accounted for than were ever granted,
//   - a hash entry filed under the wrong key,
//   - a core's dirty count that is not the number of cached pages flagged
//     dirty by that core (setDirty and clean move flag and count together).
func (rt *Runtime) CheckCrashInvariants() error {
	owner := make(map[uint64]string)
	claim := func(id uint64, who string) error {
		if prev, ok := owner[id]; ok {
			return fmt.Errorf("frame %d owned twice: %s and %s", id, prev, who)
		}
		owner[id] = who
		return nil
	}
	for c, q := range rt.fl.cores {
		for _, fr := range q {
			if err := claim(fr.ID, fmt.Sprintf("core queue %d", c)); err != nil {
				return err
			}
		}
	}
	for n, q := range rt.fl.nodes {
		for _, fr := range q {
			if err := claim(fr.ID, fmt.Sprintf("numa queue %d", n)); err != nil {
				return err
			}
		}
	}
	for n, blocks := range rt.fl.hugeNodes {
		for _, blk := range blocks {
			for _, fr := range blk {
				if err := claim(fr.ID, fmt.Sprintf("huge queue %d", n)); err != nil {
					return err
				}
			}
		}
	}
	for _, fr := range rt.fl.single {
		if err := claim(fr.ID, "single queue"); err != nil {
			return err
		}
	}
	if free := rt.fl.Free(); free < 0 {
		return fmt.Errorf("freelist negative: %d", free)
	}
	for pg := range rt.cached() {
		if at := pg.file.pages.Get(pg.idx); at != pg {
			return fmt.Errorf("page (%s,%d) is not what its index holds there", pg.file.name, pg.idx)
		}
		who := fmt.Sprintf("page (%s,%d)", pg.file.name, pg.idx)
		if (!pg.resident || pg.frame == nil) && !pg.busy() {
			return fmt.Errorf("%s is claimed or unbacked (resident=%v, frame=%v) but not busy", who, pg.resident, pg.frame != nil)
		}
		if len(pg.vas.S) <= 1 && !pg.vas.Inline() {
			return fmt.Errorf("%s: %d mapping(s) kept outside the page's own slot", who, len(pg.vas.S))
		}
		if pg.huge {
			for _, fr := range pg.frames {
				if fr == nil {
					continue
				}
				if err := claim(fr.ID, who); err != nil {
					return err
				}
			}
		} else if pg.frame != nil {
			if err := claim(pg.frame.ID, who); err != nil {
				return err
			}
		}
	}
	if uint64(len(owner)) > rt.limitPages {
		return fmt.Errorf("%d frames accounted > limit %d", len(owner), rt.limitPages)
	}
	return rt.auditDirtyCounts()
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
