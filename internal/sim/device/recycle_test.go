package device

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refStore is the content model of Store as it was before blocks were
// recycled and before the two tiers shared one block table: media and staged
// versions are two Go maps, every staged version is a fresh buffer, a
// superseded one is dropped for the garbage collector, and settle walks every
// staged block on every call. Same rules, no buffer ever reused, no table, no
// early-out — the reference the free list and the table are held to.
type refStore struct {
	blocks   map[uint64][]byte
	volatile map[uint64][]refVersion
	writes   uint64
}

// refVersion is the reference's staged version: a slice of its own.
type refVersion struct {
	data      []byte
	durableAt uint64
	op        uint64
}

func newRefStore() *refStore {
	return &refStore{blocks: map[uint64][]byte{}, volatile: map[uint64][]refVersion{}}
}

func (r *refStore) view(blk uint64) []byte {
	if vs := r.volatile[blk]; len(vs) > 0 {
		return vs[len(vs)-1].data
	}
	return r.blocks[blk]
}

// chunks calls fn for the piece of [off, off+n) inside each block it touches.
func chunks(off uint64, n int, fn func(blk uint64, bo, at, chunk int)) {
	for at := 0; at < n; {
		blk, bo := (off+uint64(at))/BlockSize, int((off+uint64(at))%BlockSize)
		chunk := min(BlockSize-bo, n-at)
		fn(blk, bo, at, chunk)
		at += chunk
	}
}

func (r *refStore) write(off uint64, buf []byte) {
	r.writes++
	chunks(off, len(buf), func(blk uint64, bo, at, chunk int) {
		vs := r.volatile[blk]
		if n := len(vs); n > 0 && vs[n-1].durableAt == notDurable {
			copy(vs[n-1].data[bo:], buf[at:at+chunk])
			return
		}
		b := make([]byte, BlockSize)
		copy(b, r.view(blk))
		copy(b[bo:], buf[at:at+chunk])
		r.volatile[blk] = append(vs, refVersion{data: b, durableAt: notDurable, op: r.writes})
	})
}

func (r *refStore) read(off uint64, buf []byte) {
	clear(buf)
	chunks(off, len(buf), func(blk uint64, bo, at, chunk int) {
		if b := r.view(blk); b != nil {
			copy(buf[at:at+chunk], b[bo:])
		}
	})
}

func (r *refStore) persist(off uint64, n int, at uint64) {
	chunks(off, n, func(blk uint64, _, _, _ int) {
		if vs := r.volatile[blk]; len(vs) > 0 {
			if v := &vs[len(vs)-1]; v.durableAt == notDurable || at < v.durableAt {
				v.durableAt = at
			}
		}
	})
}

func (r *refStore) settle(upTo uint64) {
	for blk, vs := range r.volatile {
		best := -1
		for i, v := range vs {
			if v.durableAt <= upTo {
				best = i
			}
		}
		if best < 0 {
			continue
		}
		r.blocks[blk] = vs[best].data
		if rest := vs[best+1:]; len(rest) > 0 {
			r.volatile[blk] = rest
		} else {
			delete(r.volatile, blk)
		}
	}
}

// owed is Store.Owed by brute force: every owed version of every block, the
// earliest write first, then the lowest block.
func (r *refStore) owed() (OwedWrite, bool) {
	var all []OwedWrite
	for blk, vs := range r.volatile {
		for _, v := range vs {
			if v.durableAt == notDurable {
				all = append(all, OwedWrite{Block: blk, Op: v.op})
			}
		}
	}
	if len(all) == 0 {
		return OwedWrite{}, false
	}
	return slices.MinFunc(all, func(a, b OwedWrite) int {
		if a.Op != b.Op {
			return cmp.Compare(a.Op, b.Op)
		}
		return cmp.Compare(a.Block, b.Block)
	}), true
}

func (r *refStore) discard(off, length uint64) {
	for b := (off + BlockSize - 1) / BlockSize; b < (off+length)/BlockSize; b++ {
		delete(r.blocks, b)
		delete(r.volatile, b)
	}
}

func (r *refStore) crash(cycle uint64, rng *rand.Rand, tearProb float64) (dropped, torn int) {
	r.settle(cycle)
	blks := make([]uint64, 0, len(r.volatile))
	for blk := range r.volatile {
		blks = append(blks, blk)
	}
	sort.Slice(blks, func(i, j int) bool { return blks[i] < blks[j] })
	for _, blk := range blks {
		vs := r.volatile[blk]
		dropped++
		if rng.Float64() < tearProb {
			sectors := 1 + rng.Intn(BlockSize/SectorSize-1)
			if r.blocks[blk] == nil {
				r.blocks[blk] = make([]byte, BlockSize)
			}
			copy(r.blocks[blk][:sectors*SectorSize], vs[len(vs)-1].data)
			torn++
		}
	}
	r.volatile = map[uint64][]refVersion{}
	return dropped, torn
}

func cloneImage(img map[uint64][]byte) map[uint64][]byte {
	out := make(map[uint64][]byte, len(img))
	for blk, b := range img {
		out[blk] = bytes.Clone(b)
	}
	return out
}

// tiers returns the store's two tiers as the maps the reference keeps — the
// table's own buffers, not copies — and fails the test when the table's
// bookkeeping disagrees with its entries: the staged list is exactly the
// blocks with versions, each once; an emptied version list is nil; nextDue is
// no later than any scheduled durability point.
func tiers(t *testing.T, s *Store) (media map[uint64][]byte, staged map[uint64][]volVersion) {
	t.Helper()
	media, staged = map[uint64][]byte{}, map[uint64][]volVersion{}
	for blk, e := range s.entries(0, ^uint64(0)) {
		if e.media != nil {
			media[blk] = e.media[:]
		}
		if e.versions != nil {
			if len(e.versions) == 0 {
				t.Fatalf("block %d keeps an empty version list", blk)
			}
			staged[blk] = e.versions
			for _, v := range e.versions {
				if v.durableAt < s.nextDue {
					t.Fatalf("block %d has a version due at %d, before nextDue %d", blk, v.durableAt, s.nextDue)
				}
			}
		}
	}
	listed := map[uint64]bool{}
	for _, blk := range s.staged {
		if listed[blk] || staged[blk] == nil {
			t.Fatalf("staged list %v: block %d listed twice or without a version", s.staged, blk)
		}
		listed[blk] = true
	}
	if len(listed) != len(staged) {
		t.Fatalf("staged list has %d blocks, the table %d with versions", len(listed), len(staged))
	}
	return media, staged
}

func sameImage(a, b map[uint64][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for blk, x := range a {
		if y, ok := b[blk]; !ok || !bytes.Equal(x, y) {
			return false
		}
	}
	return true
}

// TestRecyclingStoreMatchesNonRecyclingReference drives a Store and the
// two-map, non-recycling reference with one seeded random sequence of
// everything that touches the block table or the free list or could be hurt by
// them — WriteAt, Persist (also of a version already scheduled, to an earlier
// and to a later point), the settle every Submit does (also at exactly a
// version's durability point, and with nothing due), SettleAll, Discard, Crash
// with torn sectors, CloneMedia, AdoptMedia — and after every step compares the
// whole readable content, PendingBlocks, Owed, both tiers version by version
// (with the write that staged each) and the media image, checks that Crash,
// AdoptMedia and a Discard leave nothing owed that they dropped, and that no
// buffer is owned twice: not by the free list and a tier, not by two versions,
// not by a store and an image it handed out or adopted.
func TestRecyclingStoreMatchesNonRecyclingReference(t *testing.T) {
	const blocks = 48
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tearGot, tearWant := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		got, want := NewStore(blocks*BlockSize), newRefStore()
		type clone struct{ img, snapshot map[uint64][]byte }
		var clones []clone
		var now uint64
		var recycled, whole, crashes, torn, cloned, idle, exact, earlier, owedSteps int
		var due []uint64 // durability points handed to Persist
		all, wantAll := make([]byte, blocks*BlockSize), make([]byte, blocks*BlockSize)
		for step := 0; step < 4000; step++ {
			off := uint64(rng.Intn(blocks * BlockSize))
			n := 1 + rng.Intn(min(3*BlockSize, blocks*BlockSize-int(off)))
			clears := false // the step must leave nothing owed
			switch op := rng.Intn(100); {
			case op < 40:
				buf := make([]byte, n)
				rng.Read(buf)
				free := len(got.free)
				got.WriteAt(off, buf)
				want.write(off, buf)
				recycled += free - len(got.free)
				// A whole-block chunk is staged without the block's current
				// content under it, onto whatever the recycled buffer held.
				chunks(off, n, func(_ uint64, _, _, chunk int) { whole += chunk / BlockSize })
			case op < 65:
				at := now + uint64(rng.Intn(3000))
				chunks(off, n, func(blk uint64, _, _, _ int) {
					if vs := want.volatile[blk]; len(vs) > 0 && at < vs[len(vs)-1].durableAt && vs[len(vs)-1].durableAt != notDurable {
						earlier++
					}
				})
				got.Persist(off, n, at)
				want.persist(off, n, at)
				due = append(due, at)
			case op < 83:
				now += uint64(rng.Intn(1500))
				if due = slices.DeleteFunc(due, func(at uint64) bool { return at < now }); op < 70 && len(due) > 0 {
					// Land exactly on a durability point still ahead.
					now = due[rng.Intn(len(due))]
					exact++
				}
				if now < got.nextDue {
					idle++ // the early-out: the reference still walks everything
				}
				got.settle(now)
				want.settle(now)
			case op < 85:
				got.SettleAll()
				want.settle(notDurable - 1)
			case op < 90:
				got.Discard(off, uint64(n))
				want.discard(off, uint64(n))
				if w, owed := got.Owed(); owed && w.Block >= (off+BlockSize-1)/BlockSize && w.Block < (off+uint64(n))/BlockSize {
					t.Fatalf("seed %d step %d: block %d still owed after its Discard", seed, step, w.Block)
				}
			case op < 92:
				res := got.Crash(now, tearGot, 0.5)
				dropped, tornNow := want.crash(now, tearWant, 0.5)
				if res.DroppedBlocks != dropped || res.TornBlocks != tornNow {
					t.Fatalf("seed %d step %d: crash dropped/tore %d/%d, reference %d/%d",
						seed, step, res.DroppedBlocks, res.TornBlocks, dropped, tornNow)
				}
				crashes++
				torn += tornNow
				clears = true
			case op < 96:
				img := got.CloneMedia()
				c := clone{img, cloneImage(img)}
				if len(clones) < 4 {
					clones = append(clones, c)
				} else {
					clones[rng.Intn(len(clones))] = c
				}
				cloned++
			case len(clones) > 0:
				c := clones[rng.Intn(len(clones))]
				got.AdoptMedia(c.img)
				want.blocks, want.volatile = cloneImage(c.img), map[uint64][]refVersion{}
				clears = true
			}

			got.ReadAt(0, all)
			want.read(0, wantAll)
			if !bytes.Equal(all, wantAll) {
				t.Fatalf("seed %d step %d: readable content differs from the reference", seed, step)
			}
			if got.PendingBlocks() != len(want.volatile) {
				t.Fatalf("seed %d step %d: PendingBlocks %d, reference %d", seed, step, got.PendingBlocks(), len(want.volatile))
			}
			w, owed := got.Owed()
			if rw, rowed := want.owed(); w != rw || owed != rowed {
				t.Fatalf("seed %d step %d: Owed %+v %v, reference %+v %v", seed, step, w, owed, rw, rowed)
			}
			if owed && clears {
				t.Fatalf("seed %d step %d: block %d owed after a crash or an adopted image", seed, step, w.Block)
			}
			if owed {
				owedSteps++
			}
			media, staged := tiers(t, got)
			if !sameImage(media, want.blocks) {
				t.Fatalf("seed %d step %d: media image differs from the reference", seed, step)
			}
			if len(staged) != len(want.volatile) {
				t.Fatalf("seed %d step %d: %d staged blocks, reference %d", seed, step, len(staged), len(want.volatile))
			}
			for blk, vs := range staged {
				ref := want.volatile[blk]
				if len(vs) != len(ref) {
					t.Fatalf("seed %d step %d: block %d has %d staged versions, reference %d", seed, step, blk, len(vs), len(ref))
				}
				for i := range vs {
					if vs[i].durableAt != ref[i].durableAt || vs[i].op != ref[i].op || !bytes.Equal(vs[i].data[:], ref[i].data) {
						t.Fatalf("seed %d step %d: block %d version %d differs from the reference", seed, step, blk, i)
					}
				}
			}
			if step%32 == 0 {
				ref := NewStore(blocks * BlockSize)
				ref.AdoptMedia(want.blocks)
				if got.Fingerprint() != ref.Fingerprint() {
					t.Fatalf("seed %d step %d: Fingerprint differs from the reference", seed, step)
				}
			}
			owner := map[*byte]string{}
			own := func(b []byte, who string) {
				if len(b) != BlockSize {
					t.Fatalf("seed %d step %d: %s holds a %d-byte buffer", seed, step, who, len(b))
				}
				if prev, dup := owner[&b[0]]; dup {
					t.Fatalf("seed %d step %d: one buffer owned by %s and %s", seed, step, prev, who)
				}
				owner[&b[0]] = who
			}
			for _, b := range got.free {
				own(b[:], "the free list")
			}
			for _, b := range media {
				own(b, "media")
			}
			for _, vs := range staged {
				for _, v := range vs {
					own(v.data[:], "a staged version")
				}
			}
			for _, c := range clones {
				for _, b := range c.img {
					own(b, "a cloned image")
				}
				if step%32 == 0 && !sameImage(c.img, c.snapshot) {
					t.Fatalf("seed %d step %d: a cloned image changed after it was handed out", seed, step)
				}
			}
		}
		if recycled < 100 || whole < 100 || crashes == 0 || torn == 0 || cloned == 0 || idle < 20 || exact < 20 || earlier < 10 || owedSteps < 100 {
			t.Fatalf("seed %d: sequence too tame: %d recycled buffers, %d whole-block chunks, %d crashes, %d torn blocks, %d clones, %d settles with nothing due, %d at exactly a durability point, %d re-persists to an earlier one, %d steps with a version owed",
				seed, recycled, whole, crashes, torn, cloned, idle, exact, earlier, owedSteps)
		}
	}
}

// rewritePersistSettle is the steady state of a write-back path: the same
// blocks staged again, scheduled, and folded into media by the next Submit.
func rewritePersistSettle(s *Store, buf []byte, now *uint64) {
	for blk := uint64(0); blk < 8; blk++ {
		s.WriteAt(blk*BlockSize, buf)
		s.Persist(blk*BlockSize, BlockSize, *now+10)
	}
	*now += 100
	s.settle(*now)
}

func TestRewritePersistSettleAllocatesNothing(t *testing.T) {
	s, buf, now := NewStore(1<<20), fullBlock(0x5A), uint64(0)
	rewritePersistSettle(s, buf, &now) // first versions: media has nothing to give back yet
	rewritePersistSettle(s, buf, &now)
	if a := testing.AllocsPerRun(100, func() { rewritePersistSettle(s, buf, &now) }); a != 0 {
		t.Fatalf("rewrite -> Persist -> settle at steady state: %v allocations per run, want 0", a)
	}
	if len(s.free) != 8 || s.PendingBlocks() != 0 {
		t.Fatalf("free list holds %d blocks with %d pending, want 8 and 0", len(s.free), s.PendingBlocks())
	}
}

func BenchmarkStoreRewritePersist(b *testing.B) {
	s, buf, now := NewStore(1<<20), fullBlock(0x5A), uint64(0)
	b.ReportAllocs()
	b.SetBytes(8 * BlockSize)
	for i := 0; i < b.N; i++ {
		rewritePersistSettle(s, buf, &now)
	}
}

// BenchmarkStoreViewHit is the fill read of a materialized block: one probe of
// the block table.
func BenchmarkStoreViewHit(b *testing.B) {
	const blocks = 4096
	s, buf := NewStore(blocks*BlockSize), fullBlock(0x5A)
	for blk := uint64(0); blk < blocks; blk++ {
		s.WriteAt(blk*BlockSize, buf)
	}
	s.Persist(0, blocks*BlockSize, 1)
	s.settle(1)
	page := func() []byte { return buf }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !s.ReadPage(uint64(i*2654435761%blocks)*BlockSize, page) {
			b.Fatal("hole")
		}
	}
}

// BenchmarkStoreSubmitNothingDue is the settle every Submit starts with while
// 4 K blocks sit staged and none has reached its durability point: the deep
// write-back queue of a saturated device.
func BenchmarkStoreSubmitNothingDue(b *testing.B) {
	const blocks = 4096
	s, buf := NewStore(blocks*BlockSize), fullBlock(0x5A)
	for blk := uint64(0); blk < blocks; blk++ {
		s.WriteAt(blk*BlockSize, buf)
		s.Persist(blk*BlockSize, BlockSize, 1<<40+blk)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.settle(uint64(i))
	}
	if s.PendingBlocks() != blocks {
		b.Fatalf("%d blocks pending, want %d", s.PendingBlocks(), blocks)
	}
}
