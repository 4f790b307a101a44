// Package scratch lends the key-value stores and the graph engine their
// transient buffers: a node or block being searched, a log or WAL record being
// built, a vertex's offset pair or edge run being read, a parent or rank being
// written. Each buffer has one holder at a time — whoever borrowed it, until
// it gives it back — so the stores and the graph allocate per hop only what
// they hand to their caller.
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
