package torture

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// The reference against hand-built schedules of two threads on one slot
// (and Kreon puts on one key): after the steps, which versions may a live
// read return, and which may a recovered read? "g" is any content: a store
// faulted mid-copy inside the window.
//
// Steps: "tN store" begins a store on thread N and "tN stored" / "tN
// faulted" ends it; "tN msync" begins an msync, "tN synced" / "tN syncfail"
// ends it nil / with an error; "tN fsyncfail" is an fsync that errs; "kv put"
// and "kv msync" are a whole put and a whole Kreon msync.
func TestReferenceSchedules(t *testing.T) {
	for _, tc := range []struct {
		name        string
		steps       string
		live, crash string
	}{
		{"ack after the store", "t0 store, t0 stored, t1 msync, t1 synced", "1", "1"},
		{"over-ack: store completes inside another thread's msync", "t1 msync, t0 store, t0 stored, t1 synced", "1", "0 1"},
		{"store in flight", "t0 store, t0 stored, t1 msync, t1 synced, t0 store", "1 2", "1 2"},
		{"overlapping stores: either copy may land last", "t0 store, t1 store, t1 stored, t0 stored", "1 2", "0 1 2"},
		{"unknown after SIGBUS", "t0 store, t0 stored, t1 msync, t1 synced, t0 store, t0 faulted", "g", "g"},
		{"a SIGBUS overwritten and acked is gone", "t0 store, t0 faulted, t0 store, t0 stored, t1 msync, t1 synced", "2", "2"},
		{"taint after an fsync error", "t0 store, t0 stored, t1 fsyncfail, t1 msync, t1 synced", "1", "0 1"},
		{"taint after an msync error", "t0 store, t0 stored, t1 msync, t1 syncfail, t0 msync, t0 synced", "1", "0 1"},
		{"taint keeps earlier acks", "t0 store, t0 stored, t1 msync, t1 synced, t1 fsyncfail, t0 store, t0 stored, t0 msync, t0 synced", "2", "1 2"},
		{"kreon: absent until acked", "kv put", "1", "0 1"},
		{"kreon: [acked, latest]", "kv put, kv msync, kv put, kv put", "3", "1 2 3"},
	} {
		pl := &Plan{Files: []FileSpec{{Slots: 1}}, Kreon: &KreonSpec{Keys: 1}}
		r := newRef(pl)
		kv := len(pl.Files)
		var stores [2]uint64
		var snaps [2][]uint64
		file := 0
		for _, step := range strings.Split(tc.steps, ", ") {
			who, what, _ := strings.Cut(step, " ")
			if who == "kv" {
				file = kv
				if what == "put" {
					r.files[kv][0].end(r.files[kv][0].begin(), true)
				} else {
					r.syncEnd(kv, 0, r.syncBegin(kv, 0, 1), nil)
				}
				continue
			}
			th := int(who[1] - '0')
			c := &r.files[0][0]
			switch what {
			case "store":
				stores[th] = c.begin()
			case "stored", "faulted":
				c.end(stores[th], what == "stored")
			case "msync":
				snaps[th] = r.syncBegin(0, 0, 1)
			case "synced", "syncfail":
				var err error
				if what == "syncfail" {
					err = errors.New("EIO")
				}
				r.syncEnd(0, 0, snaps[th], err)
			case "fsyncfail":
				r.syncEnd(0, 0, nil, errors.New("EIO"))
			default:
				t.Fatalf("%s: unknown step %q", tc.name, step)
			}
		}
		c := &r.files[file][0]
		if got := accepted(c, c.floor); got != tc.live {
			t.Errorf("%s: live read may see %q, want %q", tc.name, got, tc.live)
		}
		if got := accepted(c, c.acked); got != tc.crash {
			t.Errorf("%s: recovered read may see %q, want %q", tc.name, got, tc.crash)
		}
	}
}

// accepted lists the versions in 0..issued a read whose window opens at lo
// may return, or "g" when the window holds a faulted store's garbage, which
// admits any content.
func accepted(c *cell, lo uint64) string {
	if c.holds(lo, c.issued, func(uint64) bool { return false }) {
		return "g"
	}
	var out []string
	for v := uint64(0); v <= c.issued; v++ {
		if c.holds(lo, c.issued, func(w uint64) bool { return w == v }) {
			out = append(out, fmt.Sprint(v))
		}
	}
	return strings.Join(out, " ")
}
