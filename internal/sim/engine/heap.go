package engine

// procHeap is a binary min-heap of runnable processes ordered by
// (wake time, schedule key, proc id). The default schedule key is the proc
// id itself, so ties among equal-cycle processes break in spawn order; a
// non-zero Config.SchedPerturb replaces the key with a per-proc hash so the
// torture harness can explore alternative — but still fully deterministic —
// interleavings of the same workload (see schedBefore).
type procHeap struct {
	items []*Proc
}

func (h *procHeap) Len() int { return len(h.items) }

// schedBefore is THE scheduling order of the engine: every place that
// decides "who runs first among equal-cycle processes" (the run-queue heap
// and Proc.Sync's causality check) must agree with it, or perturbed runs
// would observe shared state in an order the run queue never produces.
func schedBefore(a, b *Proc) bool {
	if a.now != b.now {
		return a.now < b.now
	}
	if a.skey != b.skey {
		return a.skey < b.skey
	}
	return a.id < b.id
}

func (h *procHeap) less(a, b *Proc) bool { return schedBefore(a, b) }

func (h *procHeap) Push(p *Proc) {
	h.items = append(h.items, p)
	h.up(len(h.items) - 1)
}

// Pop removes and returns the process with the smallest wake time.
func (h *procHeap) Pop() *Proc {
	n := len(h.items)
	if n == 0 {
		return nil
	}
	top := h.items[0]
	h.items[0] = h.items[n-1]
	h.items[n-1] = nil
	h.items = h.items[:n-1]
	if len(h.items) > 0 {
		h.down(0)
	}
	return top
}

// ReplaceTop removes and returns the process with the smallest wake time and
// inserts p, in one sift: the yield path's Push followed by Pop when p is
// known not to be the new minimum. The heap must not be empty.
func (h *procHeap) ReplaceTop(p *Proc) *Proc {
	top := h.items[0]
	h.items[0] = p
	h.down(0)
	return top
}

// Peek returns the process with the smallest wake time without removing it.
func (h *procHeap) Peek() *Proc {
	if len(h.items) == 0 {
		return nil
	}
	return h.items[0]
}

func (h *procHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *procHeap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(h.items[l], h.items[smallest]) {
			smallest = l
		}
		if r < n && h.less(h.items[r], h.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
