package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// TestAllocatorMatchesReferenceModel holds the flat allocator to the map-based
// one it replaced (mem_ref_test.go) over seeded operation sequences on both
// tiers and 1-4 nodes: the same frame IDs in the same order, the same
// counters after every step, Frame(id) nil for the same ids, and a frame's
// payload still there when its ID is handed out again.
func TestAllocatorMatchesReferenceModel(t *testing.T) {
	for _, buddy := range []bool{false, true} {
		for nodes := 1; nodes <= 4; nodes++ {
			// Per-node ranges that are not block-aligned carve into mixed
			// orders and leave the nodes' XOR-buddies in each other's ranges.
			for _, frames := range []uint64{1, 37, 1000, 4*BlockFrames + 200} {
				name := fmt.Sprintf("buddy=%v/nodes=%d/frames=%d", buddy, nodes, frames)
				t.Run(name, func(t *testing.T) {
					got, want := NewAllocator(frames*PageSize, nodes), newRefAllocator(frames*PageSize, nodes)
					if buddy {
						got, want = NewBuddyAllocator(frames*PageSize, nodes), newRefBuddyAllocator(frames*PageSize, nodes)
					}
					diffRun(t, got, want, nodes, int64(frames)+int64(nodes))
				})
			}
		}
	}
}

func diffRun(t *testing.T, got *Allocator, want *refAllocator, nodes int, seed int64) {
	if got.Capacity() != want.Capacity() || got.Buddy() != want.Buddy() {
		t.Fatalf("capacity %d buddy %v, reference %d %v", got.Capacity(), got.Buddy(), want.Capacity(), want.Buddy())
	}
	rng := rand.New(rand.NewSource(seed))
	type pair struct{ g, w *Frame }
	var held []pair
	var blocks [][]pair
	tags := map[uint64]uint64{} // frame ID -> last payload tag written
	var tag uint64
	reuses := 0
	took := func(step int, g, w *Frame) pair {
		if (g == nil) != (w == nil) {
			t.Fatalf("step %d: got frame %v, reference %v", step, g, w)
		}
		if g == nil {
			return pair{}
		}
		if g.ID != w.ID || g.Node() != w.Node() {
			t.Fatalf("step %d: got frame %d on node %d, reference %d on node %d", step, g.ID, g.Node(), w.ID, w.Node())
		}
		if got.Frame(g.ID) != g {
			t.Fatalf("step %d: Frame(%d) is not the frame handed out", step, g.ID)
		}
		if g.ID%5 == 0 { // a payload on every fifth frame keeps the run small
			var word [8]byte
			if last, ok := tags[g.ID]; ok {
				reuses++
				g.ReadAt(word[:], 0)
				if have := binary.LittleEndian.Uint64(word[:]); have != last {
					t.Fatalf("step %d: frame %d came back with payload tag %d, left with %d", step, g.ID, have, last)
				}
			} else if g.HasData() {
				t.Fatalf("step %d: first allocation of frame %d already has a payload", step, g.ID)
			}
			tag++
			tags[g.ID] = tag
			binary.LittleEndian.PutUint64(word[:], tag)
			g.WriteAt(0, word[:])
		}
		return pair{g, w}
	}
	for step := 0; step < 6000; step++ {
		prefer := rng.Intn(nodes+2) - 1 // -1 and nodes are out of range: node 0
		switch op := rng.Intn(100); {
		case op < 35:
			if p := took(step, got.Alloc(prefer), want.Alloc(prefer)); p.g != nil {
				held = append(held, p)
			}
		case op < 42:
			n := rng.Intn(40)
			g, w := got.AllocN(prefer, n), want.AllocN(prefer, n)
			if len(g) != len(w) {
				t.Fatalf("step %d: AllocN(%d, %d) gave %d frames, reference %d", step, prefer, n, len(g), len(w))
			}
			for i := range g {
				held = append(held, took(step, g[i], w[i]))
			}
		case op < 80:
			// Release in bursts so the buddy tier coalesces and, now and then,
			// compacts a stack.
			for n := rng.Intn(8); n > 0 && len(held) > 0; n-- {
				i := rng.Intn(len(held))
				got.Release(held[i].g)
				want.Release(held[i].w)
				held[i] = held[len(held)-1]
				held = held[:len(held)-1]
			}
		case op < 90:
			g, w := got.AllocBlock(prefer), want.AllocBlock(prefer)
			if p := took(step, g, w); p.g != nil {
				blk := []pair{p}
				for i := 1; i < BlockFrames; i++ {
					blk = append(blk, took(step, g.BlockFrame(i), want.blockFrame(w, i)))
				}
				blocks = append(blocks, blk)
			}
		default:
			if len(blocks) == 0 {
				continue
			}
			i := rng.Intn(len(blocks))
			if rng.Intn(3) == 0 {
				// A block can also go back frame by frame, in any order.
				for _, k := range rng.Perm(BlockFrames) {
					got.Release(blocks[i][k].g)
					want.Release(blocks[i][k].w)
				}
			} else {
				got.ReleaseBlock(blocks[i][0].g)
				want.ReleaseBlock(blocks[i][0].w)
			}
			blocks[i] = blocks[len(blocks)-1]
			blocks = blocks[:len(blocks)-1]
		}
		if g, w := got.Free(), want.Free(); g != w {
			t.Fatalf("step %d: Free %d, reference %d", step, g, w)
		}
		if g, w := got.Allocated(), want.Allocated(); g != w {
			t.Fatalf("step %d: Allocated %d, reference %d", step, g, w)
		}
		for n := 0; n < nodes; n++ {
			if g, w := got.FreeOnNode(n), want.FreeOnNode(n); g != w {
				t.Fatalf("step %d: FreeOnNode(%d) %d, reference %d", step, n, g, w)
			}
			if g, w := got.FreeBlocksOnNode(n), want.FreeBlocksOnNode(n); g != w {
				t.Fatalf("step %d: FreeBlocksOnNode(%d) %d, reference %d", step, n, g, w)
			}
		}
		if step%97 == 0 {
			for id := uint64(0); id < got.Capacity()+2; id++ {
				if g, w := got.Frame(id), want.Frame(id); (g == nil) != (w == nil) {
					t.Fatalf("step %d: Frame(%d) = %v, reference %v", step, id, g, w)
				}
			}
		}
	}
	if got.Capacity() >= 1000 && reuses == 0 {
		t.Fatal("no frame with a payload was ever handed out twice: the payload check is vacuous")
	}
}

// TestAllocatorPanicsMatchReferenceModel: the misuse each model must refuse,
// with the same message, before it changes anything.
func TestAllocatorPanicsMatchReferenceModel(t *testing.T) {
	panicOf := func(f func()) (r any) {
		defer func() { r = recover() }()
		f()
		return nil
	}
	both := func(name string, got, want func()) {
		t.Helper()
		g, w := panicOf(got), panicOf(want)
		if w == nil {
			t.Fatalf("%s: the reference did not panic", name)
		}
		if g != w {
			t.Fatalf("%s: panic %v, reference %v", name, g, w)
		}
	}
	const bytes = 4 * BlockFrames * PageSize
	plain, refPlain := NewAllocator(bytes, 2), newRefAllocator(bytes, 2)
	f, rf := plain.Alloc(0), refPlain.Alloc(0)
	plain.Release(f)
	refPlain.Release(rf)
	both("double release", func() { plain.Release(f) }, func() { refPlain.Release(rf) })
	both("nil release", func() { plain.Release(nil) }, func() { refPlain.Release(nil) })
	both("ReleaseBlock on the plain tier", func() { plain.ReleaseBlock(nil) }, func() { refPlain.ReleaseBlock(nil) })

	buddy, refBuddy := NewBuddyAllocator(bytes, 2), newRefBuddyAllocator(bytes, 2)
	// Frame 0 freed while its buddy, frame 1, is out: no coalescing hides it.
	f0, rf0 := buddy.Alloc(0), refBuddy.Alloc(0)
	f1, rf1 := buddy.Alloc(0), refBuddy.Alloc(0)
	buddy.Release(f0)
	refBuddy.Release(rf0)
	both("buddy double free", func() { buddy.Release(f0) }, func() { refBuddy.Release(rf0) })
	buddy.Release(f1)
	refBuddy.Release(rf1)

	b0, rb0 := buddy.AllocBlock(0), refBuddy.AllocBlock(0)
	b1, rb1 := buddy.AllocBlock(0), refBuddy.AllocBlock(0)
	if b0.ID != 0 || b1.ID != BlockFrames {
		t.Fatalf("blocks at %d and %d, want 0 and %d", b0.ID, b1.ID, BlockFrames)
	}
	both("ReleaseBlock of a block's second frame", func() { buddy.ReleaseBlock(b0.BlockFrame(1)) }, func() { refBuddy.ReleaseBlock(refBuddy.blockFrame(rb0, 1)) })
	both("ReleaseBlock of an aligned frame nobody allocated", func() { buddy.ReleaseBlock(&Frame{ID: 2 * BlockFrames}) }, func() { refBuddy.ReleaseBlock(&Frame{ID: 2 * BlockFrames}) })
	other, refOther := NewBuddyAllocator(bytes, 2), newRefBuddyAllocator(bytes, 2)
	both("ReleaseBlock of another allocator's block", func() { buddy.ReleaseBlock(other.AllocBlock(0)) }, func() { refBuddy.ReleaseBlock(refOther.AllocBlock(0)) })
	buddy.ReleaseBlock(b1)
	refBuddy.ReleaseBlock(rb1)
	buddy.ReleaseBlock(b0)
	refBuddy.ReleaseBlock(rb0)
	both("block double free", func() { buddy.ReleaseBlock(b0) }, func() { refBuddy.ReleaseBlock(rb0) })
	b0, rb0 = buddy.AllocBlock(0), refBuddy.AllocBlock(0)
	if g, w := buddy.Allocated(), refBuddy.Allocated(); g != w || g != BlockFrames {
		t.Fatalf("after the refused calls: Allocated %d, reference %d, want %d", g, w, BlockFrames)
	}
}

// TestUntouchedPoolHasNoFrameTable: a pool nobody allocates from — the host
// page cache of an Aquila-mode world — must cost no per-frame state.
func TestUntouchedPoolHasNoFrameTable(t *testing.T) {
	a := NewAllocator(128<<20, 2)
	for n := range a.nodes {
		if a.nodes[n].frames != nil || a.nodes[n].released != nil || a.nodes[n].meta != nil {
			t.Fatalf("node %d of an untouched pool holds per-frame state", n)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { NewAllocator(128<<20, 2) }); allocs > 2 {
		t.Fatalf("NewAllocator made %v allocations, want the allocator and its nodes", allocs)
	}
	a.Alloc(1)
	if a.nodes[0].frames != nil || a.nodes[1].frames == nil {
		t.Fatal("the first allocation on node 1 should make node 1's table and only that")
	}
}

func TestAllocReleaseDoNotAllocate(t *testing.T) {
	a := NewAllocator(64<<20, 2)
	a.Release(a.Alloc(0))
	a.Release(a.Alloc(1))
	if allocs := testing.AllocsPerRun(1000, func() { a.Release(a.Alloc(0)); a.Release(a.Alloc(1)) }); allocs != 0 {
		t.Fatalf("Alloc+Release made %v allocations per run, want 0", allocs)
	}
}

// TestEveryBlockIsItsBaseFrame takes every 2 MB block of a 64 MB, two-node
// buddy pool: frame i of a block is the record of frame base+i, on the base
// frame's node, and the one Frame(base+i) returns. A block in and out again
// allocates nothing.
func TestEveryBlockIsItsBaseFrame(t *testing.T) {
	a := NewBuddyAllocator(64<<20, 2)
	var bases []*Frame
	for blk := a.AllocBlock(0); blk != nil; blk = a.AllocBlock(0) {
		bases = append(bases, blk)
	}
	if want := int(64 << 20 / PageSize / BlockFrames); len(bases) != want || a.Free() != 0 {
		t.Fatalf("%d blocks, %d frames left free; want %d and 0", len(bases), a.Free(), want)
	}
	for _, base := range bases {
		for i := range BlockFrames {
			f := base.BlockFrame(i)
			if f.ID != base.ID+uint64(i) || f.Node() != base.Node() || a.Frame(f.ID) != f {
				t.Fatalf("frame %d of block %d: ID %d on node %d (base on node %d), table record %v",
					i, base.ID, f.ID, f.Node(), base.Node(), a.Frame(f.ID) == f)
			}
		}
	}
	for _, base := range bases {
		a.ReleaseBlock(base)
	}
	if allocs := testing.AllocsPerRun(100, func() { a.ReleaseBlock(a.AllocBlock(1)) }); allocs != 0 {
		t.Fatalf("AllocBlock+ReleaseBlock made %v allocations per run, want 0", allocs)
	}
}

// BenchmarkAllocRelease: one frame out of and back into a plain pool.
func BenchmarkAllocRelease(b *testing.B) {
	a := NewAllocator(64<<20, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Release(a.Alloc(i & 1))
	}
}

// BenchmarkAllocBlockReleaseBlock: one 2 MB block out of and back into a buddy
// pool. A block is its base frame, so nothing allocates.
func BenchmarkAllocBlockReleaseBlock(b *testing.B) {
	a := NewBuddyAllocator(64<<20, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.ReleaseBlock(a.AllocBlock(i & 1))
	}
}

// BenchmarkNewAllocator128MB: what a world pays at boot — a 128 MB pool made
// and every frame of it handed out, as core.Runtime.grow does.
func BenchmarkNewAllocator128MB(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := NewAllocator(128<<20, 2)
		for n := 0; n < 2; n++ {
			if got := len(a.AllocN(n, 16384)); got != 16384 {
				b.Fatalf("node %d gave %d frames", n, got)
			}
		}
	}
}

// TestBuffersWriteMatchesReference holds Put and Copy to a plain 4 KB page:
// base's bytes, src written at off, zeros from src's end to end. Seeded
// random shapes — base's held length, off, len(src) and end, src dense, one
// nonzero byte or all zeros — cover a write into base's own buffer, one that
// moves into a larger class, and Copy's buffer of its own; base's bytes on
// both sides of [off, end) must survive the move.
func TestBuffersWriteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var bufs Buffers
	moved := 0
	for step := 0; step < 4000; step++ {
		var page [PageSize]byte
		baseLen := rng.Intn(PageSize/LineSize+1) * LineSize
		base := bufs.alloc(baseLen)
		for i := range base {
			base[i] = byte(rng.Intn(256))
		}
		if baseLen > 0 {
			base[baseLen-1] |= 1 // held up to its last nonzero line
		}
		copy(page[:], base)
		off := rng.Intn(PageSize)
		src := make([]byte, rng.Intn(PageSize-off+1))
		switch rng.Intn(3) {
		case 0:
			for i := range src {
				src[i] = byte(rng.Intn(255) + 1)
			}
		case 1:
			if len(src) > 0 {
				src[rng.Intn(len(src))] = 0xA5
			}
		}
		end := off + len(src) + rng.Intn(PageSize-off-len(src)+1)
		copy(page[off:], src)
		clear(page[off+len(src) : end])
		kept := append([]byte(nil), base...)
		op := "Put"
		var got []byte
		if rng.Intn(2) == 0 {
			op = "Copy"
			got = bufs.Copy(base, off, src, end)
			if !bytes.Equal(base, kept) {
				t.Fatalf("step %d: Copy changed its base", step)
			}
		} else {
			got = bufs.Put(base, off, src, end)
		}
		if len(got) > 0 && (len(base) == 0 || &got[0] != &base[:1][0]) {
			moved++
		}
		shape := fmt.Sprintf("step %d: %s(base %d bytes, off %d, src %d bytes, end %d)", step, op, baseLen, off, len(src), end)
		if got == nil || len(got) != LineUp(LastNonzero(got)) {
			t.Fatalf("%s holds %d bytes (nil %v), its last nonzero line ends at %d", shape, len(got), got == nil, LineUp(LastNonzero(got)))
		}
		if !bytes.Equal(got, page[:len(got)]) || !bytes.Equal(page[len(got):], zeros[len(got):]) {
			t.Fatalf("%s: content differs from the reference page", shape)
		}
		bufs.Release(got)
		if op == "Copy" {
			bufs.Release(base)
		}
	}
	if moved < 500 {
		t.Fatalf("only %d writes moved into a new buffer: the copy outside [off, end) is barely exercised", moved)
	}
}

// BenchmarkBuffersCopyPage: a whole-page write-back staged over a dense block
// (device.Store's first stage of a block after a Persist): Copy of a full
// page into a buffer of its own. src covers all of base, so base's bytes are
// not copied at all.
func BenchmarkBuffersCopyPage(b *testing.B) {
	var bufs Buffers
	base, src := make([]byte, PageSize), make([]byte, PageSize)
	for i := range base {
		base[i], src[i] = byte(i)|1, byte(i>>3)|1
	}
	b.SetBytes(PageSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bufs.Release(bufs.Copy(base, 0, src, PageSize))
	}
}

// frameRef is the payload model a Frame is held to: a plain 4 KB page per
// frame, materialized or not, never trimmed and never recycled.
type frameRef struct {
	page [PageSize]byte
	has  bool
}

// frameDiff drives the frames of one small allocator and their references
// through the same payload operations, and counts the steps that make the
// comparison worth something.
type frameDiff struct {
	t   *testing.T
	a   *Allocator
	out []*Frame             // the frames handed out, by slot
	ref map[uint64]*frameRef // by frame ID: a payload outlives its frame's release
	// grown counts writes that moved a payload into a larger class, shrunk
	// fills that moved one into a smaller class, holeOverDense hole-fills of
	// a frame holding a dense page.
	grown, shrunk, holeOverDense int
}

func newFrameDiff(t *testing.T) *frameDiff {
	const frames = 4
	d := &frameDiff{t: t, a: NewAllocator(frames*PageSize, 1), ref: map[uint64]*frameRef{}}
	for range frames {
		f := d.a.Alloc(0)
		d.out = append(d.out, f)
		d.ref[f.ID] = &frameRef{}
	}
	return d
}

func (d *frameDiff) write(f *Frame, r *frameRef, off int, buf []byte) {
	f.WriteAt(off, buf)
	copy(r.page[off:], buf)
	r.has = true
}

func (d *frameDiff) load(f *Frame, r *frameRef, held []byte) {
	f.Load(held)
	clear(r.page[copy(r.page[:], held):])
	r.has = true
}

// step applies one operation, read from five bytes as the fuzz target reads
// them — a kind, a slot, two shape bytes x and y, a fill — to the slot's
// frame and its reference, then checks every frame.
func (d *frameDiff) step(at string, kind, slot, x, y, fill byte) {
	d.t.Helper()
	i := int(slot) % len(d.out)
	f := d.out[i]
	r := d.ref[f.ID]
	held, before := len(f.data), cap(f.data)
	switch kind %= 9; kind {
	case 0: // dense
		off := int(x) * 16
		buf := make([]byte, min(1+int(y)*16, PageSize-off))
		for j := range buf {
			buf[j] = fill + byte(j)
		}
		d.write(f, r, off, buf)
	case 1: // one nonzero byte in a run of zeros
		off := int(x) * 16
		buf := make([]byte, min(1+int(y)*16, PageSize-off))
		buf[int(fill)%len(buf)] = fill | 1
		d.write(f, r, off, buf)
	case 2: // zeros from inside the held bytes over their tail, and on
		off := 0
		if held > 0 {
			off = int(x) * 16 % held
		}
		d.write(f, r, off, make([]byte, max(1, held-off+int(y)%(PageSize-held+1))))
	case 3: // a short nonzero write past the held end
		off := min(held+int(x)%(PageSize-held+1), PageSize-1)
		buf := make([]byte, 1+int(y)%min(LineSize, PageSize-off))
		for j := range buf {
			buf[j] = fill | 1
		}
		d.write(f, r, off, buf)
	case 4:
		off := int(x) * 16
		got := bytes.Repeat([]byte{0xEE}, min(1+int(y)*16, PageSize-off))
		if f.ReadAt(got, off); !bytes.Equal(got, r.page[off:off+len(got)]) {
			d.t.Fatalf("%s: frame %d reads [%d, %d) unlike its reference", at, f.ID, off, off+len(got))
		}
	case 5, 6: // a fill from a block holding 1 to 4 lines, or a dense one
		b := make([]byte, (1+int(x)%4)*LineSize)
		if kind == 6 {
			b = make([]byte, PageSize)
		}
		for j := range b {
			b[j] = fill + byte(j)*y
		}
		b[len(b)-1] |= 1
		d.load(f, r, b)
		if cap(f.data) < before {
			d.shrunk++
		}
	case 7: // a hole-fill
		if r.has && held == PageSize {
			d.holeOverDense++
		}
		f.Reset()
		clear(r.page[:])
	default:
		d.a.Release(f)
		d.out[i] = d.a.Alloc(0)
	}
	if kind < 4 && before > 0 && cap(f.data) > before {
		d.grown++
	}
	d.check(at)
}

// check holds every frame to its reference — the whole page as ReadAt sees
// it, and whether it is materialized — and its payload to the convention: a
// length of whole lines ending at its last nonzero one, a class capacity, no
// buffer owned by two frames or by a frame and a class list.
func (d *frameDiff) check(at string) {
	d.t.Helper()
	owner := map[*byte]string{}
	own := func(b []byte, who string) {
		if cap(b) == 0 {
			return // zeros, or never materialized: nothing held
		}
		if c := cap(b); c&(c-1) != 0 || c < LineSize || c > PageSize {
			d.t.Fatalf("%s: %s holds a buffer of capacity %d", at, who, c)
		}
		p := &b[:1][0]
		if prev, dup := owner[p]; dup {
			d.t.Fatalf("%s: one buffer owned by %s and %s", at, prev, who)
		}
		owner[p] = who
	}
	for size := LineSize; size <= PageSize; size *= 2 {
		for _, b := range d.a.bufs.Idle(size) {
			if cap(b) != size || len(b) != 0 {
				d.t.Fatalf("%s: the %d-byte class list holds a buffer of length %d, capacity %d", at, size, len(b), cap(b))
			}
			own(b, "a class list")
		}
	}
	var page [PageSize]byte
	for id := range d.a.Capacity() {
		f, r := d.a.Frame(id), d.ref[id]
		if f.HasData() != r.has {
			d.t.Fatalf("%s: frame %d materialized %v, reference %v", at, id, f.HasData(), r.has)
		}
		b := f.Held()
		if want := LineUp(LastNonzero(b)); len(b) != want {
			d.t.Fatalf("%s: frame %d holds %d bytes, its last nonzero line ends at %d", at, id, len(b), want)
		}
		own(b, fmt.Sprintf("frame %d", id))
		for j := range page {
			page[j] = 0xEE
		}
		if f.ReadAt(page[:], 0); page != r.page {
			d.t.Fatalf("%s: frame %d's page differs from its reference", at, id)
		}
	}
}

// TestFrameMatchesReference holds frame payloads — held up to their last
// nonzero line, in buffers recycled through the allocator's class lists — to
// a plain 4 KB page per frame, over seeded sequences of every payload
// operation: WriteAt (dense, one nonzero byte, zeros over a held tail, past
// the held end), ReadAt, a fill from a short and from a dense block, a
// hole-fill (Reset), Release and Alloc again. After every step each frame
// reads as its reference and keeps the convention (check).
func TestFrameMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := newFrameDiff(t)
		var op [5]byte
		for step := 0; step < 4000; step++ {
			rng.Read(op[:])
			d.step(fmt.Sprintf("seed %d step %d", seed, step), op[0], op[1], op[2], op[3], op[4])
		}
		if d.grown < 20 || d.shrunk < 20 || d.holeOverDense < 20 {
			t.Fatalf("seed %d: sequence too tame: %d payloads grown into a larger class, %d shrunk on a fill, %d hole-fills over a dense page",
				seed, d.grown, d.shrunk, d.holeOverDense)
		}
	}
}

// FuzzFrameMatchesReference is the reference test's comparison under fuzzed
// operations: each op is five bytes, decoded by frameDiff.step.
func FuzzFrameMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 255, 7, 5, 1, 0, 9, 3, 7, 0, 0, 0, 0, 8, 0, 0, 0, 0})
	f.Add([]byte{6, 2, 0, 1, 0xAB, 5, 2, 1, 3, 1, 2, 2, 4, 9, 0, 3, 2, 0, 200, 5, 4, 2, 0, 255, 0})
	f.Add([]byte{1, 3, 10, 40, 9, 2, 3, 0, 0, 0, 6, 3, 0, 0, 1, 7, 3, 0, 0, 0, 4, 3, 0, 255, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		d := newFrameDiff(t)
		for i := 0; i+5 <= len(ops) && i < 5*256; i += 5 {
			d.step(fmt.Sprintf("op %d", i/5), ops[i], ops[i+1], ops[i+2], ops[i+3], ops[i+4])
		}
	})
}
