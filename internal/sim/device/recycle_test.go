package device

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"aquila/internal/sim/mem"
)

// refStore is the content model of Store as it was before blocks were
// recycled, trimmed to their last nonzero line, and before the two tiers
// shared one block table: media and staged versions are two Go maps, every
// staged version is a fresh full-block buffer, a superseded one is dropped for
// the garbage collector, and settle walks every staged block on every call.
// Same rules, no buffer ever reused or cut short, no table, no early-out — the
// reference the class lists, the trimming and the table are held to.
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

// crash returns how many blocks it dropped and which of them it tore, in
// block order.
func (r *refStore) crash(cycle uint64, rng *rand.Rand, tearProb float64) (dropped int, torn []uint64) {
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
			torn = append(torn, blk)
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

// full is a held content buffer as the whole block it stands for, nil for a
// block never written.
func full(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, BlockSize)
	copy(out, b)
	return out
}

// freeCount is how many buffers the store's class lists hold.
func freeCount(s *Store) int {
	n := 0
	for size := mem.LineSize; size <= BlockSize; size *= 2 {
		n += len(s.bufs.Idle(size))
	}
	return n
}

// tiers returns the store's two tiers as the maps the reference keeps — the
// table's own buffers, not copies — and fails the test when the table's
// bookkeeping disagrees with its entries: the staged list is exactly the
// blocks with versions, each once; an emptied version list is nil; nextDue is
// no later than any scheduled durability point; every buffer holds its block
// exactly up to its last nonzero line.
func tiers(t *testing.T, at string, s *Store, in func(blk uint64) bool) (media map[uint64][]byte, staged map[uint64][]volVersion) {
	t.Helper()
	trimmed := func(blk uint64, b []byte) {
		if !in(blk) {
			return
		}
		if want := mem.LineUp(mem.LastNonzero(b)); b != nil && len(b) != want {
			t.Fatalf("%s: block %d holds %d bytes, its last nonzero line ends at %d", at, blk, len(b), want)
		}
	}
	media, staged = map[uint64][]byte{}, map[uint64][]volVersion{}
	for blk, e := range s.entries(0, ^uint64(0)) {
		if e.media != nil {
			trimmed(blk, e.media)
			media[blk] = e.media
		}
		if e.versions != nil {
			if len(e.versions) == 0 {
				t.Fatalf("%s: block %d keeps an empty version list", at, blk)
			}
			staged[blk] = e.versions
			for _, v := range e.versions {
				trimmed(blk, v.data)
				if v.durableAt < s.nextDue {
					t.Fatalf("%s: block %d has a version due at %d, before nextDue %d", at, blk, v.durableAt, s.nextDue)
				}
			}
		}
	}
	listed := map[uint64]bool{}
	for _, blk := range s.staged {
		if listed[blk] || staged[blk] == nil {
			t.Fatalf("%s: staged list %v: block %d listed twice or without a version", at, s.staged, blk)
		}
		listed[blk] = true
	}
	if len(listed) != len(staged) {
		t.Fatalf("%s: staged list has %d blocks, the table %d with versions", at, len(listed), len(staged))
	}
	return media, staged
}

// sameImage compares two images block by block, each block as the whole
// BlockSize bytes it stands for.
func sameImage(a, b map[uint64][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for blk, x := range a {
		if y, ok := b[blk]; !ok || !bytes.Equal(full(x), full(y)) {
			return false
		}
	}
	return true
}

// owners checks that no buffer is owned twice — not by a class list and a
// tier, not by two versions — that every buffer has a class capacity (an
// empty block may hold none) and a length of whole lines, at most BlockSize,
// and that a class list holds only empty buffers of its class. It returns the
// check, for the caller to add the buffers it holds outside the store.
func owners(t *testing.T, at string, s *Store, media map[uint64][]byte, staged map[uint64][]volVersion) func(b []byte, who string) {
	t.Helper()
	owner := map[*byte]string{}
	own := func(b []byte, who string) {
		t.Helper()
		if len(b)%mem.LineSize != 0 || len(b) > BlockSize {
			t.Fatalf("%s: %s holds %d bytes", at, who, len(b))
		}
		if cap(b) == 0 {
			return // the empty block: nothing held
		}
		if c := cap(b); c&(c-1) != 0 || c < mem.LineSize || c > BlockSize {
			t.Fatalf("%s: %s holds a buffer of capacity %d", at, who, c)
		}
		p := &b[:1][0]
		if prev, dup := owner[p]; dup {
			t.Fatalf("%s: one buffer owned by %s and %s", at, prev, who)
		}
		owner[p] = who
	}
	for size := mem.LineSize; size <= BlockSize; size *= 2 {
		for _, b := range s.bufs.Idle(size) {
			if cap(b) != size || len(b) != 0 {
				t.Fatalf("%s: the %d-byte class list holds a buffer of length %d, capacity %d", at, size, len(b), cap(b))
			}
			own(b, "a class list")
		}
	}
	for _, b := range media {
		own(b, "media")
	}
	for _, vs := range staged {
		for _, v := range vs {
			own(v.data, "a staged version")
		}
	}
	return own
}

// compare fails the test when got and want differ in anything readable — the
// content, PendingBlocks, Owed, both tiers version by version (with the write
// that staged each), the media image — or when the store's bookkeeping is off
// (tiers, owners). With touched nil it compares every block and returns the
// owner check besides what Owed reported; otherwise it compares the content,
// tiers and trimming of the touched blocks only, and the owner check is nil.
func compare(t *testing.T, at string, got *Store, want *refStore, touched []bool) (OwedWrite, bool, func([]byte, string)) {
	t.Helper()
	in := func(blk uint64) bool { return touched == nil || touched[blk] }
	buf, wantBuf := make([]byte, BlockSize), make([]byte, BlockSize)
	for blk := range got.Capacity() / BlockSize {
		if in(blk) {
			got.ReadAt(blk*BlockSize, buf)
			want.read(blk*BlockSize, wantBuf)
			if !bytes.Equal(buf, wantBuf) {
				t.Fatalf("%s: block %d's readable content differs from the reference", at, blk)
			}
		}
	}
	if got.PendingBlocks() != len(want.volatile) {
		t.Fatalf("%s: PendingBlocks %d, reference %d", at, got.PendingBlocks(), len(want.volatile))
	}
	w, owed := got.Owed()
	if rw, rowed := want.owed(); w != rw || owed != rowed {
		t.Fatalf("%s: Owed %+v %v, reference %+v %v", at, w, owed, rw, rowed)
	}
	media, staged := tiers(t, at, got, in)
	if len(media) != len(want.blocks) {
		t.Fatalf("%s: media holds %d blocks, reference %d", at, len(media), len(want.blocks))
	}
	for blk, b := range media {
		if y, ok := want.blocks[blk]; in(blk) && (!ok || !bytes.Equal(full(b), full(y))) {
			t.Fatalf("%s: block %d's media differs from the reference", at, blk)
		}
	}
	if len(staged) != len(want.volatile) {
		t.Fatalf("%s: %d staged blocks, reference %d", at, len(staged), len(want.volatile))
	}
	for blk, vs := range staged {
		if !in(blk) {
			continue
		}
		ref := want.volatile[blk]
		if len(vs) != len(ref) {
			t.Fatalf("%s: block %d has %d staged versions, reference %d", at, blk, len(vs), len(ref))
		}
		for i := range vs {
			if vs[i].durableAt != ref[i].durableAt || vs[i].op != ref[i].op || !bytes.Equal(full(vs[i].data), ref[i].data) {
				t.Fatalf("%s: block %d version %d differs from the reference", at, blk, i)
			}
		}
	}
	if touched != nil {
		return w, owed, nil
	}
	return w, owed, owners(t, at, got, media, staged)
}

// checkView holds a block's view to what a fill takes it for: it ends at its
// last nonzero line, so a frame's Load — which takes it as it is — holds the
// same content as a whole-page write of it, which scans for that line.
func checkView(t *testing.T, at string, blk uint64, b []byte, loaded, set *mem.Frame) {
	t.Helper()
	if n := mem.LineUp(mem.LastNonzero(b)); n != len(b) {
		t.Fatalf("%s: block %d's view is %d bytes, its last nonzero line ends at %d", at, blk, len(b), n)
	}
	loaded.Load(b)
	set.SetPage(b)
	if !bytes.Equal(loaded.Held(), set.Held()) || len(loaded.Held()) != len(set.Held()) {
		t.Fatalf("%s: block %d loads as %d bytes, a whole-page write of it holds %d", at, blk, len(loaded.Held()), len(set.Held()))
	}
}

// chunkShape draws one write of the reference test: random bytes or a run
// with one nonzero byte at a random offset, whole blocks of zeros, a zero run
// from inside a block's held prefix over its tail, or a short nonzero write
// past a block's held length.
func chunkShape(rng *rand.Rand, s *Store, blocks int) (off uint64, buf []byte) {
	blk := uint64(rng.Intn(blocks))
	held := len(s.view(blk))
	switch rng.Intn(5) {
	case 0, 1:
		off = uint64(rng.Intn(blocks * BlockSize))
		buf = make([]byte, 1+rng.Intn(min(3*BlockSize, blocks*BlockSize-int(off))))
		if rng.Intn(2) == 0 {
			rng.Read(buf)
		} else {
			buf[rng.Intn(len(buf))] = byte(1 + rng.Intn(255))
		}
		return off, buf
	case 2:
		return blk * BlockSize, make([]byte, (1+rng.Intn(min(3, blocks-int(blk))))*BlockSize)
	case 3:
		lo := min(rng.Intn(held+1), BlockSize-1)
		end := max(held, lo+1) + rng.Intn(BlockSize-max(held, lo+1)+1)
		return blk*BlockSize + uint64(lo), make([]byte, end-lo)
	default:
		lo := min(held+rng.Intn(BlockSize-held+1), BlockSize-1)
		buf = make([]byte, 1+rng.Intn(min(256, BlockSize-lo)))
		rng.Read(buf)
		buf[len(buf)-1] |= 1
		return blk*BlockSize + uint64(lo), buf
	}
}

// pendingCap returns the capacity of blk's pending (not yet scheduled)
// version's buffer, -1 when it has none.
func pendingCap(s *Store, blk uint64) int {
	if e := s.entry(blk); e != nil {
		if n := len(e.versions); n > 0 && e.versions[n-1].durableAt == notDurable {
			return cap(e.versions[n-1].data)
		}
	}
	return -1
}

// TestRecyclingStoreMatchesNonRecyclingReference drives a Store and the
// two-map, non-recycling, untrimmed reference with one seeded random sequence
// of everything that touches the block table, the class lists or a buffer's
// held length, or could be hurt by them — WriteAt (dense, one nonzero byte,
// whole zero blocks, zeros over a held tail, past a held end), WritePage (of
// a short held slice, over a pending version, over media), Persist (also
// of a version already scheduled, to an earlier and to a later point), the
// settle every Submit does (also at exactly a version's durability point, and
// with nothing due), SettleAll, Discard, Crash with torn sectors, CloneMedia,
// AdoptMedia — and after every step compares everything compare does, checks
// that Crash, AdoptMedia and a Discard leave nothing owed that they dropped,
// and that no buffer is owned twice: not by a class list and a tier, not by
// two versions, not by a store and an image it handed out or adopted.
func TestRecyclingStoreMatchesNonRecyclingReference(t *testing.T) {
	const blocks = 48
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tearGot, tearWant := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		got, want := NewStore(blocks*BlockSize), newRefStore()
		type clone struct{ img, snapshot map[uint64][]byte }
		var clones []clone
		var now uint64
		var recycled, whole, crashes, torn, cloned, idle, exact, earlier, owedSteps, grown, shortTears, empty int
		var shortPages, overPending, overMedia int // WritePage: of fewer held bytes than a block, over a pending version, over media
		var due []uint64                           // durability points handed to Persist
		fills := mem.NewAllocator(2*mem.PageSize, 1)
		loaded, set := fills.Alloc(0), fills.Alloc(0)
		for step := 0; step < 5000; step++ {
			at := fmt.Sprintf("seed %d step %d", seed, step)
			off := uint64(rng.Intn(blocks * BlockSize))
			n := 1 + rng.Intn(min(3*BlockSize, blocks*BlockSize-int(off)))
			clears := false // the step must leave nothing owed
			// The blocks the step may change, compared after it; every 32nd
			// step (and an adopted image) compares them all.
			touched := make([]bool, blocks)
			touch := func(off uint64, n int) {
				chunks(off, n, func(blk uint64, _, _, _ int) { touched[blk] = true })
			}
			touchStaged := func() {
				for blk := range want.volatile {
					touched[blk] = true
				}
			}
			switch op := rng.Intn(100); {
			case op < 40 && rng.Intn(4) == 0:
				// A page write-back: a frame's held bytes — none, a stamp,
				// some lines, a dense page — then zeros to the block's end.
				blk := uint64(rng.Intn(blocks))
				held := make([]byte, []int{0, 8, mem.LineSize, 5 * mem.LineSize, BlockSize}[rng.Intn(5)])
				rng.Read(held)
				if len(held) < BlockSize {
					shortPages++
				}
				if pendingCap(got, blk) >= 0 {
					overPending++
				} else if e := got.entry(blk); e != nil && e.media != nil {
					overMedia++
				}
				page := make([]byte, BlockSize)
				copy(page, held)
				touched[blk] = true
				free, before := freeCount(got), got.Stats()
				got.WritePage(blk*BlockSize, held)
				want.write(blk*BlockSize, page)
				recycled += max(0, free-freeCount(got))
				if st := got.Stats(); st.Writes != before.Writes+1 || st.BytesWritten != before.BytesWritten+BlockSize || st.Writes != want.writes {
					t.Fatalf("%s: WritePage counted %+v after %+v, want the one 4 KB write", at, st, before)
				}
			case op < 40:
				off, buf := chunkShape(rng, got, blocks)
				pending := map[uint64]int{}
				chunks(off, len(buf), func(blk uint64, _, _, chunk int) {
					pending[blk] = pendingCap(got, blk)
					// A whole-block chunk is staged without the block's
					// current content under it, onto whatever the recycled
					// buffer held.
					whole += chunk / BlockSize
				})
				touch(off, len(buf))
				free := freeCount(got)
				got.WriteAt(off, buf)
				want.write(off, buf)
				recycled += max(0, free-freeCount(got))
				for blk, c := range pending {
					if c > 0 && pendingCap(got, blk) > c {
						grown++ // a merge that moved into a larger class
					}
				}
			case op < 65:
				at := now + uint64(rng.Intn(3000))
				chunks(off, n, func(blk uint64, _, _, _ int) {
					if vs := want.volatile[blk]; len(vs) > 0 && at < vs[len(vs)-1].durableAt && vs[len(vs)-1].durableAt != notDurable {
						earlier++
					}
				})
				touch(off, n)
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
				touchStaged()
				got.settle(now)
				want.settle(now)
			case op < 85:
				touchStaged()
				got.SettleAll()
				want.settle(notDurable - 1)
			case op < 90:
				touch(off, n)
				got.Discard(off, uint64(n))
				want.discard(off, uint64(n))
				if w, owed := got.Owed(); owed && w.Block >= (off+BlockSize-1)/BlockSize && w.Block < (off+uint64(n))/BlockSize {
					t.Fatalf("%s: block %d still owed after its Discard", at, w.Block)
				}
			case op < 92:
				short := map[uint64]bool{} // staged blocks whose media holds less than a block
				for _, blk := range got.staged {
					if m := got.entry(blk).media; len(m) < BlockSize {
						short[blk] = true
					}
				}
				touchStaged()
				res := got.Crash(now, tearGot, 0.5)
				dropped, tornNow := want.crash(now, tearWant, 0.5)
				if res.DroppedBlocks != dropped || res.TornBlocks != len(tornNow) {
					t.Fatalf("%s: crash dropped/tore %d/%d, reference %d/%d",
						at, res.DroppedBlocks, res.TornBlocks, dropped, len(tornNow))
				}
				for _, blk := range tornNow {
					if short[blk] {
						shortTears++
					}
				}
				crashes++
				torn += len(tornNow)
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
				touched = nil
			}
			if step%32 == 0 {
				touched = nil
			}

			w, owed, own := compare(t, at, got, want, touched)
			if owed && clears {
				t.Fatalf("%s: block %d owed after a crash or an adopted image", at, w.Block)
			}
			if owed {
				owedSteps++
			}
			for blk := uint64(0); blk < blocks; blk++ {
				b := got.view(blk)
				if b != nil && len(b) == 0 {
					empty++
				}
				if b != nil && (touched == nil || touched[blk]) {
					checkView(t, at, blk, b, loaded, set)
				}
			}
			if step%32 == 0 {
				ref := NewStore(blocks * BlockSize)
				ref.AdoptMedia(want.blocks)
				if got.Fingerprint() != ref.Fingerprint() {
					t.Fatalf("%s: Fingerprint differs from the reference", at)
				}
			}
			for _, c := range clones {
				if own == nil {
					break
				}
				for _, b := range c.img {
					if len(b) != BlockSize {
						t.Fatalf("%s: a cloned image holds a %d-byte block", at, len(b))
					}
					own(b, "a cloned image")
				}
				if step%32 == 0 && !sameImage(c.img, c.snapshot) {
					t.Fatalf("%s: a cloned image changed after it was handed out", at)
				}
			}
		}
		if recycled < 100 || whole < 100 || crashes == 0 || torn == 0 || cloned == 0 || idle < 20 || exact < 20 || earlier < 10 || owedSteps < 100 ||
			grown < 20 || shortTears < 5 || empty < 100 || shortPages < 20 || overPending < 20 || overMedia < 20 {
			t.Fatalf("seed %d: sequence too tame: %d recycled buffers, %d whole-block chunks, %d crashes, %d torn blocks, %d clones, %d settles with nothing due, %d at exactly a durability point, %d re-persists to an earlier one, %d steps with a version owed, %d buffers grown into a larger class, %d tears over a short media block, %d empty blocks seen, %d short page writes, %d over a pending version, %d over media",
				seed, recycled, whole, crashes, torn, cloned, idle, exact, earlier, owedSteps, grown, shortTears, empty, shortPages, overPending, overMedia)
		}
	}
}

// FuzzStoreMatchesReference is the reference test's comparison under fuzzed
// operations over an eight-block store: each op is five bytes — a kind, a
// block, an offset, a length and a fill — decoding to a dense or a sparse
// WriteAt (the fill byte at the run's last byte only), a WritePage of a dense
// held slice of up to a block, a Persist, a settle, a SettleAll or a Crash
// with torn sectors.
func FuzzStoreMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 0, 255, 7, 1, 1, 0, 255, 0, 2, 0, 0, 0, 0})
	f.Add([]byte{1, 2, 3, 9, 0xAB, 0, 2, 200, 40, 3, 5, 2, 0, 255, 1, 4, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 255, 1, 3, 0, 0, 0, 0, 1, 0, 8, 1, 0, 5, 0, 0, 0, 0, 0, 7, 100, 255, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const blocks = 8
		got, want := NewStore(blocks*BlockSize), newRefStore()
		tearGot, tearWant := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(1))
		var now uint64
		for i := 0; i+5 <= len(ops) && i < 5*256; i += 5 {
			kind, blk, lo, n, fill := ops[i]%8, uint64(ops[i+1]%blocks), int(ops[i+2])*16, 1+int(ops[i+3])*32, ops[i+4]
			off := blk*BlockSize + uint64(lo)
			n = min(n, blocks*BlockSize-int(off))
			switch kind {
			case 0: // dense: every byte the fill, shifted by its index
				buf := make([]byte, n)
				for j := range buf {
					buf[j] = fill + byte(j)
				}
				got.WriteAt(off, buf)
				want.write(off, buf)
			case 1: // a page write-back of a dense held slice, zeros after it
				page := make([]byte, BlockSize)
				held := page[:min(n, BlockSize)]
				for j := range held {
					held[j] = fill + byte(j)
				}
				got.WritePage(blk*BlockSize, held)
				want.write(blk*BlockSize, page)
			case 2, 3: // sparse: zeros, the fill at the last byte
				buf := make([]byte, n)
				buf[n-1] = fill
				got.WriteAt(off, buf)
				want.write(off, buf)
			case 4:
				got.Persist(off, n, now+uint64(fill))
				want.persist(off, n, now+uint64(fill))
			case 5:
				now += uint64(fill)
				got.settle(now)
				want.settle(now)
			case 6:
				got.SettleAll()
				want.settle(notDurable - 1)
			default:
				res := got.Crash(now, tearGot, 0.5)
				dropped, torn := want.crash(now, tearWant, 0.5)
				if res.DroppedBlocks != dropped || res.TornBlocks != len(torn) {
					t.Fatalf("op %d: crash dropped/tore %d/%d, reference %d/%d", i/5, res.DroppedBlocks, res.TornBlocks, dropped, len(torn))
				}
			}
			compare(t, fmt.Sprintf("op %d", i/5), got, want, nil)
		}
		ref := NewStore(blocks * BlockSize)
		ref.AdoptMedia(want.blocks)
		if got.Fingerprint() != ref.Fingerprint() {
			t.Fatal("Fingerprint differs from the reference")
		}
	})
}

// TestCrashRecyclesDroppedVersions pins that a crash hands the buffers and the
// version lists of what it drops to the free lists, as Discard does.
func TestCrashRecyclesDroppedVersions(t *testing.T) {
	s := NewStore(1 << 20)
	for blk := uint64(0); blk < 8; blk++ {
		s.WriteAt(blk*BlockSize, fullBlock(byte(blk)))
		s.Persist(blk*BlockSize, BlockSize, 1000)
	}
	s.Crash(10, nil, 0)
	if n := len(s.bufs.Idle(BlockSize)); n != 8 || len(s.spare) != 8 || s.ResidentBlocks() != 0 {
		t.Fatalf("after the crash: %d full blocks and %d version lists free, %d blocks resident; want 8, 8 and 0",
			n, len(s.spare), s.ResidentBlocks())
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

// stampBlock is a page as the fault and eviction microbenchmarks leave it:
// one nonzero 8-byte word, zeros after it.
func stampBlock() []byte {
	b := make([]byte, BlockSize)
	binary.LittleEndian.PutUint64(b, 0x5A5A_0000_0000_0001)
	return b
}

// TestRewritePersistSettleAllocatesNothing holds the cycle to zero
// allocations over dense blocks, which live in the full-block class, and over
// stamped ones, which live in the one-line class.
func TestRewritePersistSettleAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		buf   []byte
		class int // the capacity its buffers take
	}{{"dense", fullBlock(0x5A), BlockSize}, {"stamp", stampBlock(), mem.LineSize}} {
		s, now := NewStore(1<<20), uint64(0)
		rewritePersistSettle(s, tc.buf, &now) // first versions: media has nothing to give back yet
		rewritePersistSettle(s, tc.buf, &now)
		if a := testing.AllocsPerRun(100, func() { rewritePersistSettle(s, tc.buf, &now) }); a != 0 {
			t.Fatalf("%s: rewrite -> Persist -> settle at steady state: %v allocations per run, want 0", tc.name, a)
		}
		if len(s.bufs.Idle(tc.class)) != 8 || freeCount(s) != 8 || s.PendingBlocks() != 0 {
			t.Fatalf("%s: the %d-byte class list holds %d blocks of %d free, %d pending; want 8, 8 and 0",
				tc.name, tc.class, len(s.bufs.Idle(tc.class)), freeCount(s), s.PendingBlocks())
		}
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

// BenchmarkStoreStampWriteBack is the same cycle over pages that carry one
// 8-byte stamp: what each write-back of the fault and eviction workloads costs
// the store.
func BenchmarkStoreStampWriteBack(b *testing.B) {
	s, buf, now := NewStore(1<<20), stampBlock(), uint64(0)
	b.ReportAllocs()
	b.SetBytes(8 * BlockSize)
	for i := 0; i < b.N; i++ {
		rewritePersistSettle(s, buf, &now)
	}
}

// forgetBlocks makes blocks [0, n) of s never written again and drops its
// content pool, class lists, remainders and all: the next content carves new
// buffers. The block table, the version lists on spare and the staged list's
// array stay, so a write into the blocks allocates only its content.
func forgetBlocks(s *Store, n uint64) {
	for _, e := range s.entries(0, n) {
		e.media = nil
	}
	s.bufs = mem.Buffers{}
}

// forgetLists drops s's emptied version lists and the rest of its list slab,
// so the next block that stages a version carves its list from a new slab.
// The spare list's own array stays, as the staged list's does.
func forgetLists(s *Store) {
	clear(s.spare)
	s.spare, s.lists = s.spare[:0], nil
}

// TestBulkWriteIsOneContentAllocation: a dense 8 MB WriteAt into blocks never
// written takes its 2,048 pages in one array, and an all-zero one takes none.
// The store is cold but for its block table and staged list: each block's
// first version list is carved too, listSlab to an allocation.
func TestBulkWriteIsOneContentAllocation(t *testing.T) {
	const size = 8 << 20
	const lists = size / BlockSize / listSlab
	for _, tc := range []struct {
		name string
		buf  []byte
		want float64
	}{{"dense", bytes.Repeat(fullBlock(0x5A), size/BlockSize), 1 + lists}, {"zeros", make([]byte, size), lists}} {
		s := NewStore(size)
		got := make([]byte, size)
		a := testing.AllocsPerRun(3, func() {
			s.WriteAt(0, tc.buf)
			s.ReadAt(0, got)
			s.Persist(0, size, 1)
			s.settle(1)
			forgetBlocks(s, size/BlockSize)
			forgetLists(s)
		})
		if a != tc.want {
			t.Errorf("%s: an 8 MB WriteAt into fresh blocks made %v allocations, want %v (content and %d list slabs)",
				tc.name, a, tc.want, lists)
		}
		if !bytes.Equal(got, tc.buf) {
			t.Errorf("%s: the write did not read back", tc.name)
		}
	}
}

// BenchmarkStoreFirstStampWriteBack is a stamped page written back into a
// block never written before and settled: the first write-back of a page of
// the fault and eviction workloads. Its one line is carved from a 4 KB slab,
// so ~1/64 of an allocation per write-back: -benchmem's whole-number
// allocs/op reads 0, and mallocs/op gives the fraction.
func BenchmarkStoreFirstStampWriteBack(b *testing.B) {
	const blocks = 1 << 14
	s, buf := NewStore(blocks*BlockSize), stampBlock()
	s.WriteAt(0, make([]byte, blocks*BlockSize)) // the table, the version lists, the staged list
	s.Persist(0, blocks*BlockSize, 1)
	s.settle(1)
	forgetBlocks(s, blocks)
	var before, after runtime.MemStats
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		blk := uint64(i % blocks)
		if blk == 0 && i > 0 {
			b.StopTimer()
			forgetBlocks(s, blocks)
			b.StartTimer()
		}
		s.WritePage(blk*BlockSize, buf)
		s.Persist(blk*BlockSize, BlockSize, uint64(i)+2)
		s.settle(uint64(i) + 2)
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "mallocs/op")
}

// BenchmarkStoreBulkWrite8MB is an 8 MB dense write into blocks never written
// before, persisted and settled: an SST image of a bulk load. Its 2,048 pages
// are one allocation, its blocks' version lists 32 more (64 to a slab).
func BenchmarkStoreBulkWrite8MB(b *testing.B) {
	const size = 8 << 20
	s, buf := NewStore(size), bytes.Repeat(fullBlock(0x5A), size/BlockSize)
	write := func(now uint64) {
		s.WriteAt(0, buf)
		s.Persist(0, size, now)
		s.settle(now)
		forgetBlocks(s, size/BlockSize)
		forgetLists(s)
	}
	write(1) // the table, the staged list
	b.ReportAllocs()
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write(uint64(i) + 2)
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
	load := func(held []byte) { copy(buf, held) }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !s.ReadPage(uint64(i*2654435761%blocks)*BlockSize, load) {
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

// crashSentinel is what the hooks armed by the tests below panic with.
type crashSentinel struct{}

// pageWrites runs a write-back pattern on a fresh store with a crash armed at
// device write at — per block, a short WriteAt that gets persisted, then the
// block's page written back, through WritePage or through the WriteAt of the
// whole page it replaces — and returns whether the crash fired, the store's
// counts and content, and the write that staged each block's newest version.
func pageWrites(page bool, at uint64) (fired bool, st Stats, content []byte, ops []uint64) {
	const blocks = 4
	s := NewStore(blocks * BlockSize)
	s.ArmCrashAtOp(at, func() { panic(crashSentinel{}) })
	stamp := stampBlock()
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(crashSentinel); !ok {
					panic(r)
				}
				fired = true
			}
		}()
		for blk := uint64(0); blk < blocks; blk++ {
			s.WriteAt(blk*BlockSize+100, []byte{1, 2, 3})
			s.Persist(blk*BlockSize, BlockSize, 50)
			if page {
				s.WritePage(blk*BlockSize, stamp[:mem.LineSize])
			} else {
				s.WriteAt(blk*BlockSize, stamp)
			}
		}
	}()
	st = s.Stats()
	for _, e := range s.entries(0, blocks) {
		if n := len(e.versions); n > 0 {
			ops = append(ops, e.versions[n-1].op)
		}
	}
	content = make([]byte, blocks*BlockSize)
	s.ReadAt(0, content)
	return fired, st, content, ops
}

// TestWritePageIsTheWholePageWriteAt pins that a page write-back through
// WritePage is, to everything that counts device writes, the WriteAt of the
// whole page it replaces: the same Stats, the same ordinal on the version it
// stages, and a crash planned at_device_op N fires after the same write, with
// the same content staged.
func TestWritePageIsTheWholePageWriteAt(t *testing.T) {
	for at := uint64(1); at <= 9; at++ {
		fw, sw, cw, ow := pageWrites(false, at)
		fp, sp, cp, op := pageWrites(true, at)
		if fw != fp || sw != sp || !bytes.Equal(cw, cp) || !slices.Equal(ow, op) {
			t.Fatalf("crash at device write %d: WriteAt of the page fired %v with %+v, versions by %v; WritePage fired %v with %+v, versions by %v (same content: %v)",
				at, fw, sw, ow, fp, sp, op, bytes.Equal(cw, cp))
		}
		if want := at <= 8; fp != want || fp && sp.Writes != at {
			t.Fatalf("crash at device write %d: fired %v after %d writes", at, fp, sp.Writes)
		}
	}
}

// fillStampFlush is one page of the fault and eviction workloads through a
// frame: filled from a block holding one stamped line, a new 8-byte stamp
// stored, written back, the write scheduled and settled.
func fillStampFlush(s *Store, fr *mem.Frame, i uint64, now *uint64) {
	var stamp [8]byte
	if !s.ReadPage(0, fr.Load) {
		panic("hole")
	}
	binary.LittleEndian.PutUint64(stamp[:], i|1)
	fr.WriteAt(0, stamp[:])
	s.WritePage(0, fr.Held())
	*now += 10
	s.Persist(0, BlockSize, *now)
	s.settle(*now)
}

func newStampedFrame() (*Store, *mem.Frame, uint64) {
	s := NewStore(1 << 20)
	s.WriteAt(0, stampBlock())
	s.Persist(0, BlockSize, 1)
	s.settle(1)
	return s, mem.NewAllocator(1<<20, 1).Alloc(0), 1
}

// TestFrameFillStampFlushAllocatesNothing: once the frame holds its line and
// the block has been rewritten once, the cycle recycles everything it uses.
func TestFrameFillStampFlushAllocatesNothing(t *testing.T) {
	s, fr, now := newStampedFrame()
	fillStampFlush(s, fr, 1, &now)
	fillStampFlush(s, fr, 2, &now)
	i := uint64(3)
	if a := testing.AllocsPerRun(100, func() { fillStampFlush(s, fr, i, &now); i++ }); a != 0 {
		t.Fatalf("fill -> stamp -> flush at steady state: %v allocations per run, want 0", a)
	}
	if got := len(fr.Held()); got != mem.LineSize {
		t.Fatalf("the frame holds %d bytes of a stamped page, want one line", got)
	}
}

// BenchmarkFrameFillStampFlush is fillStampFlush: what a stamped page's fault
// and write-back cost the frame and the store.
func BenchmarkFrameFillStampFlush(b *testing.B) {
	s, fr, now := newStampedFrame()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fillStampFlush(s, fr, uint64(i), &now)
	}
}

// writeRun fills frames for a write-back run: dense pages, one-stamp pages,
// materialized zero pages and frames never materialized, by i % 4, each with
// round's bytes.
func writeRun(frames []*mem.Frame, round int) {
	for i, fr := range frames {
		v := byte(i+round) | 1
		switch i % 4 {
		case 0:
			fr.WriteAt(0, fullBlock(v))
		case 1:
			fr.WriteAt(8*i, []byte{v, 1})
		case 2:
			fr.WriteAt(100, make([]byte, 8))
		}
	}
}

// TestWriteFramesIsAWritePagePerFrame: a run written back with WriteFrames is,
// write for write, the WritePage of each materialized frame in order — the
// same Stats, the same ordinals on the staged versions, the crash hook firing
// after the same page — and a frame never materialized is skipped. Three runs
// over the same blocks: into fresh blocks, over the versions the first left
// pending, and over media once those have settled.
func TestWriteFramesIsAWritePagePerFrame(t *testing.T) {
	const n, base = 64, 3 * BlockSize
	type point struct {
		st      Stats
		pending int
		img     uint64 // FNV-1a of the run's blocks as reads see them
	}
	frames := make([]*mem.Frame, n)
	a := mem.NewAllocator(n*BlockSize, 1)
	for i := range frames {
		frames[i] = a.Alloc(0)
	}
	img := make([]byte, n*BlockSize)
	read := func(s *Store) uint64 {
		s.ReadAt(base, img)
		h := fnv.New64a()
		h.Write(img)
		return h.Sum64()
	}
	// record runs the three write-backs on s, each by write, and returns the
	// crash-hook points, then the versions' ordinals and the content after each.
	record := func(s *Store, write func()) (pts []point, after []string) {
		s.WritePage(0, fullBlock(7)) // one write before the runs
		var arm func()
		arm = func() {
			s.ArmCrashAtOp(s.Stats().Writes+1, func() {
				pts = append(pts, point{s.Stats(), s.PendingBlocks(), read(s)})
				arm()
			})
		}
		arm()
		for round := range 3 {
			writeRun(frames, round)
			write()
			var ops []uint64
			for _, e := range s.entries(base/BlockSize, base/BlockSize+n) {
				for _, v := range e.versions {
					ops = append(ops, v.op)
				}
			}
			after = append(after, fmt.Sprint(ops, read(s)))
			if round == 1 {
				s.Persist(0, base+n*BlockSize, 1)
				s.settle(1)
			}
		}
		return pts, after
	}
	ref := NewStore(1 << 20)
	want, wantAfter := record(ref, func() {
		for i, fr := range frames {
			if fr.HasData() {
				ref.WritePage(base+uint64(i)*BlockSize, fr.Held())
			}
		}
	})
	s := NewStore(1 << 20)
	got, gotAfter := record(s, func() { s.WriteFrames(base, frames) })
	if len(want) != 3*n*3/4 {
		t.Fatalf("the reference runs fired their hook %d times, want %d", len(want), 3*n*3/4)
	}
	if len(got) != len(want) {
		t.Fatalf("WriteFrames fired the crash hook %d times, want %d", len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("hook %d: %+v, want %+v", k, got[k], want[k])
		}
	}
	for round := range wantAfter {
		if gotAfter[round] != wantAfter[round] {
			t.Fatalf("run %d left versions and content %s, want %s", round, gotAfter[round], wantAfter[round])
		}
	}
}

// TestWriteFramesRunIsOneContentAllocation: a run of 64 dense frames written
// back to blocks never written takes its pages in one array; their version
// lists come from spare.
func TestWriteFramesRunIsOneContentAllocation(t *testing.T) {
	const n = 64
	a := mem.NewAllocator(n*BlockSize, 1)
	frames := make([]*mem.Frame, n)
	for i := range frames {
		frames[i] = a.Alloc(0)
		frames[i].WriteAt(0, fullBlock(0x5A))
	}
	s := NewStore(n * BlockSize)
	got := testing.AllocsPerRun(5, func() {
		s.WriteFrames(0, frames)
		s.Persist(0, n*BlockSize, 1)
		s.settle(1)
		forgetBlocks(s, n)
	})
	if got != 1 {
		t.Fatalf("a 64-frame dense run into fresh blocks made %v allocations, want 1", got)
	}
}
