// Package scratch holds the key-value stores' and the graph engine's buffers.
// A Stack lends the transient ones: a node or block being searched, a log or
// WAL record being built, a vertex's offset pair or edge run being read, a
// parent or rank being written. Each has one holder at a time — whoever
// borrowed it, until it gives it back. An Arena carves what a store hands to
// its caller: a Get's value, which is the caller's to keep. The YCSB helpers
// carve from one too: each key and value ycsb.KeyBytes and ycsb.Value return.
// So a hop allocates nothing of its own: now and then an arena chunk, no more.
package scratch

// minSize is the least capacity a buffer is made with: a 4 KB node or block.
// Record- and word-sized borrowers get the same buffers, so one stack serves a
// store or a graph.
const minSize = 4096

// Stack is a LIFO of free buffers; the zero value is empty and ready.
//
// A stack, not one buffer per owner: Mapping.Load, Mapping.Store, File.Pread
// and Proc.AdvanceUser all yield, so several simulated threads are inside a
// lookup or a neighbour fetch at once and each holds its own buffer; the stack
// grows to as many buffers as were ever held together. It is not for host
// concurrency — the engine runs one simulated thread at a time.
//
// Borrowers give back explicitly, never from a defer: a simulated crash
// unwinds through them with a panic and no user-space clean-up may run then
// (aqlint's crashclean). A buffer lost to an unwind was never on the stack, so
// it is garbage for the collector, not a leak and not a double hand-out.
type Stack struct{ free [][]byte }

// Borrow returns a buffer of length n holding whatever its last holder left.
// A top too small for n (a record longer than any before) is dropped for a
// larger one.
func (s *Stack) Borrow(n int) []byte {
	if top := len(s.free) - 1; top >= 0 {
		b := s.free[top]
		s.free = s.free[:top]
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n, max(n, minSize))
}

// GiveBack returns a borrowed buffer; the caller keeps no slice of it.
func (s *Stack) GiveBack(b []byte) { s.free = append(s.free, b) }

// Free returns how many buffers sit on the stack: with none borrowed, the most
// that were ever held at once (tests).
func (s *Stack) Free() int { return len(s.free) }

// maxChunk is the largest chunk an Arena carves from: 32 KB, the Go
// allocator's largest size class. (A 32 KB slice is still a large object: the
// small path ends 8 bytes short of it, at 32,760 B. Allocating one costs about
// what a 32,760-byte one does.)
const maxChunk = 32 << 10

// Arena hands out byte slices that their holders keep: a value a store returns
// from Get, a key or value from ycsb.KeyBytes or ycsb.Value. It never hands
// the same byte out twice, and it never takes a slice back; a chunk is garbage
// once every slice carved from it is. Each slice is cut with a three-index
// expression, so its cap is its len and an append to it moves to a new array
// instead of running into the next holder's bytes.
//
// Chunks start at minSize and double up to maxChunk, so a short-lived store
// wastes little; a request the rest of the chunk cannot hold starts the next
// chunk and drops that rest, and one larger than a chunk gets a chunk of its
// own size. The zero value is ready to use. Like a Stack, it takes no lock: a
// caller on several goroutines holds its own (ycsb's arena sits behind a
// mutex).
type Arena struct {
	free   []byte // what is left of the current chunk
	size   int    // the last chunk's size, short of a request's own
	chunks int
}

// Alloc returns n zero bytes with cap n, the caller's to keep.
func (a *Arena) Alloc(n int) []byte {
	if n > len(a.free) {
		a.size = min(max(2*a.size, minSize), maxChunk)
		a.free = make([]byte, max(n, a.size))
		a.chunks++
	}
	b := a.free[:n:n]
	a.free = a.free[n:]
	return b
}

// Chunks returns how many chunks the arena has allocated (tests).
func (a *Arena) Chunks() int { return a.chunks }
