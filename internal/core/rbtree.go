package core

// rbTree is a left-leaning red-black tree keyed by uint64 (device offset)
// with *Page values. Aquila keeps one per core for dirty pages (§3.2):
// sorted order makes write-back merging trivial and per-core instances avoid
// the single contended lock of the Linux path.
//
// The nodes a delete unlinks wait on the tree's free list, chained through
// left, for the next insert: a page that is dirtied, written back and dirtied
// again costs no node. A node never leaves its tree and nothing outside the
// tree holds one, so — unlike a cached page — there is no stale pointer for a
// reuse to confuse.
type rbTree struct {
	root *rbNode
	size int
	free *rbNode
}

type rbNode struct {
	key         uint64
	page        *Page
	left, right *rbNode
	red         bool
}

func isRed(n *rbNode) bool { return n != nil && n.red }

func rotateLeft(h *rbNode) *rbNode {
	x := h.right
	h.right = x.left
	x.left = h
	x.red = h.red
	h.red = true
	return x
}

func rotateRight(h *rbNode) *rbNode {
	x := h.left
	h.left = x.right
	x.right = h
	x.red = h.red
	h.red = true
	return x
}

func flipColors(h *rbNode) {
	h.red = !h.red
	h.left.red = !h.left.red
	h.right.red = !h.right.red
}

// Len returns the number of entries.
func (t *rbTree) Len() int { return t.size }

// Insert adds (key, page); replacing an existing key's value.
func (t *rbTree) Insert(key uint64, pg *Page) {
	t.root = t.insert(t.root, key, pg)
	t.root.red = false
}

func (t *rbTree) insert(h *rbNode, key uint64, pg *Page) *rbNode {
	if h == nil {
		t.size++
		n := t.free
		if n == nil {
			return &rbNode{key: key, page: pg, red: true}
		}
		t.free = n.left
		*n = rbNode{key: key, page: pg, red: true}
		return n
	}
	switch {
	case key < h.key:
		h.left = t.insert(h.left, key, pg)
	case key > h.key:
		h.right = t.insert(h.right, key, pg)
	default:
		h.page = pg
	}
	if isRed(h.right) && !isRed(h.left) {
		h = rotateLeft(h)
	}
	if isRed(h.left) && isRed(h.left.left) {
		h = rotateRight(h)
	}
	if isRed(h.left) && isRed(h.right) {
		flipColors(h)
	}
	return h
}

// Get returns the page at key.
func (t *rbTree) Get(key uint64) (*Page, bool) {
	n := t.root
	for n != nil {
		switch {
		case key < n.key:
			n = n.left
		case key > n.key:
			n = n.right
		default:
			return n.page, true
		}
	}
	return nil, false
}

// Delete removes key, reporting whether it was present.
func (t *rbTree) Delete(key uint64) bool {
	if _, ok := t.Get(key); !ok {
		return false
	}
	if !isRed(t.root.left) && !isRed(t.root.right) {
		t.root.red = true
	}
	t.root = t.delete(t.root, key)
	if t.root != nil {
		t.root.red = false
	}
	t.size--
	return true
}

func moveRedLeft(h *rbNode) *rbNode {
	flipColors(h)
	if isRed(h.right.left) {
		h.right = rotateRight(h.right)
		h = rotateLeft(h)
		flipColors(h)
	}
	return h
}

func moveRedRight(h *rbNode) *rbNode {
	flipColors(h)
	if isRed(h.left.left) {
		h = rotateRight(h)
		flipColors(h)
	}
	return h
}

func fixUp(h *rbNode) *rbNode {
	if isRed(h.right) {
		h = rotateLeft(h)
	}
	if isRed(h.left) && isRed(h.left.left) {
		h = rotateRight(h)
	}
	if isRed(h.left) && isRed(h.right) {
		flipColors(h)
	}
	return h
}

func minNode(h *rbNode) *rbNode {
	for h.left != nil {
		h = h.left
	}
	return h
}

func (t *rbTree) delete(h *rbNode, key uint64) *rbNode {
	if key < h.key {
		if !isRed(h.left) && !isRed(h.left.left) {
			h = moveRedLeft(h)
		}
		h.left = t.delete(h.left, key)
	} else {
		if isRed(h.left) {
			h = rotateRight(h)
		}
		if key == h.key && h.right == nil {
			t.release(h)
			return nil
		}
		if !isRed(h.right) && !isRed(h.right.left) {
			h = moveRedRight(h)
		}
		if key == h.key {
			m := minNode(h.right)
			h.key, h.page = m.key, m.page
			h.right = t.deleteMin(h.right)
		} else {
			h.right = t.delete(h.right, key)
		}
	}
	return fixUp(h)
}

func (t *rbTree) deleteMin(h *rbNode) *rbNode {
	if h.left == nil {
		t.release(h)
		return nil
	}
	if !isRed(h.left) && !isRed(h.left.left) {
		h = moveRedLeft(h)
	}
	h.left = t.deleteMin(h.left)
	return fixUp(h)
}

// release puts an unlinked node on the free list. It keeps nothing of what it
// was: not its page, which eviction is about to drop.
func (t *rbTree) release(n *rbNode) {
	*n = rbNode{left: t.free}
	t.free = n
}

// Ascend calls fn on every (key, page) in ascending key order until fn
// returns false.
func (t *rbTree) Ascend(fn func(key uint64, pg *Page) bool) {
	ascend(t.root, fn)
}

func ascend(n *rbNode, fn func(uint64, *Page) bool) bool {
	if n == nil {
		return true
	}
	if !ascend(n.left, fn) {
		return false
	}
	if !fn(n.key, n.page) {
		return false
	}
	return ascend(n.right, fn)
}

// Min returns the smallest key's entry.
func (t *rbTree) Min() (uint64, *Page, bool) {
	if t.root == nil {
		return 0, nil, false
	}
	n := minNode(t.root)
	return n.key, n.page, true
}

// checkInvariants validates red-black properties (tests only). It returns
// the black height or -1 on violation.
func (t *rbTree) checkInvariants() int {
	if isRed(t.root) {
		return -1
	}
	return blackHeight(t.root)
}

func blackHeight(n *rbNode) int {
	if n == nil {
		return 0
	}
	if isRed(n) && (isRed(n.left) || isRed(n.right)) {
		return -1 // consecutive reds
	}
	if n.left != nil && n.left.key >= n.key {
		return -1
	}
	if n.right != nil && n.right.key <= n.key {
		return -1
	}
	l, r := blackHeight(n.left), blackHeight(n.right)
	if l < 0 || r < 0 || l != r {
		return -1
	}
	if isRed(n) {
		return l
	}
	return l + 1
}
