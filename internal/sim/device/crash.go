// Durability model: every device content store is split into a volatile
// write-cache tier and durable media. WriteAt stages bytes into the volatile
// tier; they migrate to media only once the operation's durability point has
// passed — Persist(off, n, at) schedules the staged bytes to become durable
// at completion time `at`, and settle(now) (called from every Submit) folds
// everything whose durability point has been reached into media. A run that
// never crashes observes identical content (reads overlay the newest staged
// version), but Crash() discards the volatile tier and exposes exactly what
// a real power loss would leave on the device: completed writes, nothing
// in flight, except an optional seeded torn-sector prefix.
package device

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"slices"
)

// SectorSize is the tear granularity: a crashed in-flight 4 KB block write
// may leave a prefix of whole 512-byte sectors on media.
const SectorSize = 512

// notDurable marks a staged version whose durability point has not been
// scheduled yet (WriteAt done, Persist pending).
const notDurable = ^uint64(0)

// volVersion is one staged write of a block sitting in the device's volatile
// write-cache tier. Versions are ordered oldest-to-newest per block.
type volVersion struct {
	data      []byte // the block up to its last nonzero line (mem.Buffers)
	durableAt uint64 // completion cycle, or notDurable until Persist
	op        uint64 // the device write that staged it (its Stats.Writes)
}

// view returns the newest visible content of blk — the volatile overlay wins
// over media — or nil when the block has never been written.
func (s *Store) view(blk uint64) []byte {
	if e := s.entry(blk); e != nil {
		return e.view()
	}
	return nil
}

func (e *blockEntry) view() []byte {
	switch n := len(e.versions); {
	case n > 0:
		return e.versions[n-1].data
	case e.media != nil:
		return e.media
	}
	return nil
}

// stage copies chunk, then zeros up to end, into the volatile tier at (blk,
// bo). Consecutive writes before a Persist merge into one pending version;
// once a version has been scheduled it is immutable and a fresh copy-on-write
// version is appended. A write that covers the whole block — every page
// write-back does — needs nothing of the block's current content under it.
// Only the chunk's bytes up to its last nonzero one widen the version's
// buffer; its zeros past that cost nothing.
func (s *Store) stage(blk uint64, bo int, chunk []byte, end int) {
	e := s.slot(blk)
	vs := e.versions
	if n := len(vs); n > 0 && vs[n-1].durableAt == notDurable {
		v := &vs[n-1]
		v.data = s.bufs.Put(v.data, bo, chunk, end)
		return
	}
	var cur []byte
	if bo > 0 || end < BlockSize {
		cur = e.view()
	}
	b := s.bufs.Copy(cur, bo, chunk, end)
	if vs == nil {
		s.staged = append(s.staged, blk)
		vs = s.list()
	}
	e.versions = append(vs, volVersion{data: b, durableAt: notDurable, op: s.stats.Writes})
}

// listSlab is how many one-version lists a slab of them holds.
const listSlab = 64

// list returns an empty version list for a block staging its first version:
// an emptied one from spare, else a cap-1 list carved from the slab of
// listSlab versions, which a block that stages a second version grows out of.
func (s *Store) list() []volVersion {
	if n := len(s.spare); n > 0 {
		vs := s.spare[n-1]
		s.spare = s.spare[:n-1]
		return vs
	}
	if len(s.lists) == 0 {
		s.lists = make([]volVersion, listSlab)
	}
	vs := s.lists[:0:1]
	s.lists = s.lists[1:]
	return vs
}

// keep leaves e's versions from index n on in the volatile tier. They move to
// the front of the list so it keeps its capacity; a list left empty goes to
// spare, and taking the block off the staged list is then the caller's.
func (s *Store) keep(e *blockEntry, n int) {
	vs := e.versions
	rest := vs[:copy(vs, vs[n:])]
	clear(vs[len(rest):])
	if len(rest) > 0 {
		e.versions = rest
		return
	}
	e.versions = nil
	s.spare = append(s.spare, rest)
}

// Persist schedules the newest staged version of every block overlapping
// [off, off+n) to become durable at completion cycle `at`. I/O engines call
// it right after Submit with the returned completion time; pmem paths call it
// with the cycle the persistent-domain copy drains. Re-persisting an already
// scheduled version keeps the earlier durability point.
func (s *Store) Persist(off uint64, n int, at uint64) {
	if n <= 0 || len(s.staged) == 0 {
		return
	}
	first := off / BlockSize
	last := (off + uint64(n) - 1) / BlockSize
	for _, e := range s.entries(first, last+1) {
		vs := e.versions
		if len(vs) == 0 {
			continue
		}
		if v := &vs[len(vs)-1]; v.durableAt == notDurable || at < v.durableAt {
			v.durableAt = at
			s.nextDue = min(s.nextDue, at)
		}
	}
}

// settle folds every staged version whose durability point has been reached
// into media. Called from Submit on each device operation: any crash cycle
// the engine can still reach is >= the current submit time, so folding up to
// `now` never makes something durable that a future crash should discard.
//
// Nothing is due before nextDue, so most calls return at once; one that does
// not walks the staged blocks, drops the ones it leaves without a version and
// takes the new nextDue from the rest.
func (s *Store) settle(upTo uint64) {
	if upTo < s.nextDue {
		return
	}
	still, next := s.staged[:0], notDurable
	for _, blk := range s.staged {
		e := s.entry(blk)
		best := -1
		for i, v := range e.versions {
			if v.durableAt <= upTo {
				best = i
			}
		}
		if best >= 0 {
			// The newest version durable by upTo wins the media slot; older
			// versions are superseded. In-flight writes serialize per page
			// above this layer, so inverted completions of overlapping writes
			// do not occur in practice.
			s.bufs.Release(e.media)
			for _, v := range e.versions[:best] {
				s.bufs.Release(v.data)
			}
			e.media = e.versions[best].data
			s.keep(e, best+1)
		}
		if e.versions != nil {
			still = append(still, blk)
			for _, v := range e.versions {
				next = min(next, v.durableAt)
			}
		}
	}
	s.staged, s.nextDue = still, next
}

// SettleAll folds every *scheduled* staged version into media regardless of
// its durability point (end-of-run quiesce). Versions never Persisted remain
// volatile: a write path that forgets its durability point shows up as lost
// data instead of being silently absorbed.
func (s *Store) SettleAll() { s.settle(notDurable - 1) }

// PendingBlocks returns how many blocks have staged-but-not-yet-durable
// content in the volatile tier.
func (s *Store) PendingBlocks() int { return len(s.staged) }

// OwedWrite names a staged version that is owed its durability point: WriteAt
// staged it and no Persist has scheduled one since.
type OwedWrite struct {
	Block uint64
	// Op is the device write that staged it, 1-based as Stats.Writes and
	// CrashPlan.AtDeviceOp count: a plan with AtDeviceOp = Op crashes inside
	// the window.
	Op uint64
}

func (w OwedWrite) Error() string {
	return fmt.Sprintf("device: block %d, staged by device write %d, was never persisted (at_device_op %d replays the window)",
		w.Block, w.Op, w.Op)
}

// Owed reports whether any block's newest staged version is owed, and names
// the one staged by the earliest device write (the lowest block of it). Only
// the newest can be: stage merges into an owed version and appends only after
// a scheduled one. A quiescent world owes nothing — every write path persists
// what it staged before it returns — so an owed version there is a write that
// lost its durability point: it would survive no crash and SettleAll keeps it
// volatile.
func (s *Store) Owed() (OwedWrite, bool) {
	var w OwedWrite
	owed := false
	for _, blk := range s.staged {
		vs := s.entry(blk).versions
		v := vs[len(vs)-1]
		if v.durableAt == notDurable && (!owed || v.op < w.Op || v.op == w.Op && blk < w.Block) {
			w, owed = OwedWrite{Block: blk, Op: v.op}, true
		}
	}
	return w, owed
}

// CrashResult summarizes what a Crash() did to the device.
type CrashResult struct {
	// Cycle is the simulated cycle the power was lost.
	Cycle uint64
	// DroppedBlocks counts blocks whose newest staged version never reached
	// its durability point and was discarded.
	DroppedBlocks int
	// TornBlocks counts dropped blocks that left a partial sector prefix on
	// media (always <= DroppedBlocks).
	TornBlocks int
}

// Crash models power loss at `cycle`: staged versions durable by then fold
// into media, everything else is discarded. With tearProb > 0 each dropped
// block independently leaves a prefix of 1..7 whole 512-byte sectors of the
// in-flight write on media, drawn from rng — the torn-write behavior of real
// devices that only guarantee sector atomicity. The dropped versions' buffers
// and version lists go back to the free lists. The store stays readable
// afterwards (it serves the durable image) and keeps accepting writes, but
// recovery normally adopts CloneMedia() into a fresh system instead.
func (s *Store) Crash(cycle uint64, rng *rand.Rand, tearProb float64) CrashResult {
	s.settle(cycle)
	res := CrashResult{Cycle: cycle}
	if len(s.staged) > 0 {
		// The tears are drawn in block order: a walk of the table between the
		// lowest and the highest staged block.
		var torn [BlockSize]byte // a torn block, whole, before it is trimmed
		for _, e := range s.entries(slices.Min(s.staged), slices.Max(s.staged)+1) {
			if e.versions == nil {
				continue
			}
			pending := e.view()
			res.DroppedBlocks++
			if tearProb > 0 && rng != nil && rng.Float64() < tearProb {
				p := (1 + rng.Intn(BlockSize/SectorSize-1)) * SectorSize
				clear(torn[copy(torn[:], e.media):])
				clear(torn[copy(torn[:p], pending):p])
				e.media = s.bufs.Set(e.media, torn[:])
				res.TornBlocks++
			}
			for _, v := range e.versions {
				s.bufs.Release(v.data)
			}
			s.keep(e, len(e.versions))
		}
		s.staged, s.nextDue = s.staged[:0], notDurable
	}
	s.crashRes = &res
	return res
}

// CrashedResult returns the result of the store's Crash call, or nil.
func (s *Store) CrashedResult() *CrashResult { return s.crashRes }

// Fingerprint hashes the durable media image — block indexes and full block
// content (a block's held bytes, then its zero tail) in sorted order
// (FNV-1a). The volatile tier is excluded: call SettleAll first for an
// end-of-run fingerprint, or Crash for a post-crash one. Same workload + same
// seed + same CrashPlan ⇒ identical fingerprint.
func (s *Store) Fingerprint() uint64 {
	h := fnv.New64a()
	var le [8]byte
	for blk, e := range s.entries(0, ^uint64(0)) {
		if e.media == nil {
			continue
		}
		binary.LittleEndian.PutUint64(le[:], blk)
		h.Write(le[:])
		h.Write(e.media)
		h.Write(zeros[len(e.media):])
	}
	return h.Sum64()
}

// zeros is the tail of a block past its held bytes.
var zeros [BlockSize]byte

// CloneMedia deep-copies the durable media image (call after Crash), every
// block a full BlockSize bytes.
func (s *Store) CloneMedia() map[uint64][]byte {
	out := make(map[uint64][]byte)
	for blk, e := range s.entries(0, ^uint64(0)) {
		if e.media != nil {
			c := make([]byte, BlockSize)
			copy(c, e.media)
			out[blk] = c
		}
	}
	return out
}

// AdoptMedia replaces the store's durable media with a deep copy of img,
// each block trimmed to its last nonzero line, and clears the volatile tier —
// booting a recovered device from a crash image.
func (s *Store) AdoptMedia(img map[uint64][]byte) {
	s.tab, s.staged, s.nextDue = nil, nil, notDurable
	//aqlint:sorted -- deep copy, order-independent; no simulated state touched
	for blk, b := range img {
		s.slot(blk).media = s.bufs.Set(nil, b[:min(len(b), BlockSize)])
	}
}

// ArmCrashAtOp arms a crash hook that fires synchronously when the store's
// opIndex'th content write (1-based, counted by Stats.Writes) has been
// staged — "the machine dies between device writes W_k and W_k+1". The hook
// is cleared before it runs, so it fires at most once; it is expected to
// panic with the engine's crash sentinel and never return.
func (s *Store) ArmCrashAtOp(opIndex uint64, hook func()) {
	s.crashAtOp, s.crashHook = opIndex, hook
}

// CrashPlan is a seeded, declarative description of one crash: exactly when
// the machine dies and how the device's in-flight sector tears. Mirrors
// FaultPlan: plans are pure data, loadable from JSON fixtures, and all
// randomness flows from Seed. An empty plan (no trigger set) never fires and
// is byte-for-byte equivalent to running without one.
type CrashPlan struct {
	// Seed drives the tear policy RNG.
	Seed int64 `json:"seed"`
	// AtCycle kills the run when simulated time reaches this cycle (0 = off).
	AtCycle uint64 `json:"at_cycle"`
	// AtDeviceOp kills the run right after the Nth device content write,
	// 1-based (0 = off).
	AtDeviceOp uint64 `json:"at_device_op"`
	// AtSpan kills the run on entry to the SpanHit'th occurrence of this
	// named span, e.g. "aq.msync" or "aq.bg_writeback" ("" = off).
	AtSpan string `json:"at_span"`
	// SpanHit selects which occurrence of AtSpan fires (1-based; 0 = first).
	SpanHit uint64 `json:"span_hit"`
	// TearProb is the per-dropped-block probability of a torn sector prefix.
	TearProb float64 `json:"tear_prob"`
}

// Empty reports whether the plan has no trigger armed.
func (p *CrashPlan) Empty() bool {
	return p == nil || (p.AtCycle == 0 && p.AtDeviceOp == 0 && p.AtSpan == "")
}

// Validate rejects a plan no run can honour: a tear probability outside
// [0,1], or a span occurrence with no span to count.
func (p *CrashPlan) Validate() error {
	if p.TearProb < 0 || p.TearProb > 1 {
		return fmt.Errorf("crash plan: tear_prob %v outside [0,1]", p.TearProb)
	}
	if p.SpanHit > 0 && p.AtSpan == "" {
		return fmt.Errorf("crash plan: span_hit %d without at_span", p.SpanHit)
	}
	return nil
}

// CrashPlanFromJSON parses and validates a plan (testdata/crashplans/*.json).
func CrashPlanFromJSON(data []byte) (*CrashPlan, error) {
	var p CrashPlan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("crash plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// LoadCrashPlan reads a plan fixture from disk.
func LoadCrashPlan(path string) (*CrashPlan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return CrashPlanFromJSON(data)
}
