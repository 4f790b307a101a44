package mem

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// LineSize is the granularity page content is held at. A content buffer — a
// frame's payload, a device block's media or staged version — holds its page
// up to its last nonzero line and reads as zeros past its length: all zeros is
// a non-nil empty slice, nil a page never materialized.
const LineSize = 64

// classes counts the capacity classes, LineSize<<0 to LineSize<<(classes-1) =
// PageSize.
const classes = 7

// LineUp rounds n up to whole lines.
func LineUp(n int) int { return (n + LineSize - 1) &^ (LineSize - 1) }

// class is the capacity class of a buffer holding n bytes, 0 < n <= PageSize.
func class(n int) int { return bits.Len(uint(n-1) / LineSize) }

// zeros is what a page holds past its held bytes.
var zeros [PageSize]byte

// LastNonzero returns the length of b up to its last nonzero byte, 0 when b is
// all zeros: a backward scan, 512 bytes of zeros at a time, then a line, then
// an 8-byte word, then a byte.
func LastNonzero(b []byte) int {
	const sector = 512
	i := len(b)
	for i >= sector && bytes.Equal(b[i-sector:i], zeros[:sector]) {
		i -= sector
	}
	for i >= LineSize && bytes.Equal(b[i-LineSize:i], zeros[:LineSize]) {
		i -= LineSize
	}
	for i >= 8 && binary.LittleEndian.Uint64(b[i-8:i]) == 0 {
		i -= 8
	}
	for i > 0 && b[i-1] == 0 {
		i--
	}
	return i
}

// Buffers recycles content buffers: one free list per power-of-two capacity
// class, LineSize to PageSize. A buffer no content references any more goes
// back to its list, and the next content of its class takes it from there, so
// a steady state of rewrites allocates nothing; the lists are bounded by the
// peak number of buffers live at once. A class whose list is empty carves its
// next buffer from a slab remainder, allocated by the page: a sub-page class
// takes one page for PageSize/size buffers, the page class one page per
// buffer, or the run a ReserveRun asked for. The zero value is ready to use.
type Buffers struct {
	free [classes][][]byte
	slab [classes][]byte // what is left of each class's last slab
	run  int             // pages the page class's next slab takes (ReserveRun)
}

// alloc returns a buffer of n bytes, n a whole number of lines, with
// unspecified content: recycled from n's class list when it has one, else
// carved from the class's slab remainder. A carved buffer's capacity is its
// class, so growing it moves to a larger buffer and never into a neighbour's
// bytes. Zero bytes is the empty, non-nil content, which holds no buffer.
func (p *Buffers) alloc(n int) []byte {
	if n == 0 {
		return []byte{}
	}
	c := class(n)
	if k := len(p.free[c]); k > 0 {
		b := p.free[c][k-1]
		p.free[c] = p.free[c][:k-1]
		return b[:n]
	}
	size := LineSize << c
	if len(p.slab[c]) < size {
		pages := 1
		if size == PageSize {
			pages = max(p.run, 1)
		}
		p.slab[c] = make([]byte, pages*PageSize)
	}
	b := p.slab[c][:n:size]
	p.slab[c] = p.slab[c][size:]
	return b
}

// ReserveRun sizes the page class's next slab: when its list and remainder
// are both empty, the next page-sized buffer takes an array of pages pages
// and the ones after it carve from that. A multi-block write, or a write-back
// run of frames, asks for its remaining whole blocks before each block and
// for 0 (one page at a time) once it is staged; pages it leaves unused stay
// the remainder for the next buffer.
func (p *Buffers) ReserveRun(pages int) { p.run = pages }

// Release gives a buffer no content references any more back to its list.
func (p *Buffers) Release(b []byte) {
	if cap(b) > 0 {
		c := class(cap(b))
		p.free[c] = append(p.free[c], b[:0])
	}
}

// Idle returns the buffers of capacity size waiting on their list, for audits.
func (p *Buffers) Idle(size int) [][]byte { return p.free[class(size)] }

// Set returns content holding src up to its last nonzero line: in b's buffer
// when that is of the line's class (or src is all zeros and b holds one), else
// in one of the line's class, b going back to its list. It never returns nil.
func (p *Buffers) Set(b, src []byte) []byte { return p.set(b, src, LineUp(LastNonzero(src))) }

// SetHeld is Set of content that already ends at its last nonzero line — a
// device block's view, which every write trims — so it takes held's length as
// it is instead of scanning for that line.
func (p *Buffers) SetHeld(b, held []byte) []byte { return p.set(b, held, len(held)) }

// set is Set of src's first n bytes, n a whole number of lines.
func (p *Buffers) set(b, src []byte, n int) []byte {
	if b == nil || n > 0 && cap(b) != LineSize<<class(n) {
		p.Release(b)
		b = p.alloc(n)
	}
	b = b[:n]
	clear(b[copy(b, src):])
	return b
}

// Put writes src into content b at off, then zeros up to end (end >= off +
// len(src)), and returns the content: in b's buffer when its capacity
// allows, else in a larger one b moves into and goes back to its list from.
// Only src's bytes up to its last nonzero one widen the content; zeros that
// land on its tail cut it back to its last nonzero line. It never returns nil.
func (p *Buffers) Put(b []byte, off int, src []byte, end int) []byte {
	return p.write(b, b, off, src, end)
}

// Copy is Put into a buffer of its own, b left as it is: a copy-on-write of
// content something else still references.
func (p *Buffers) Copy(b []byte, off int, src []byte, end int) []byte {
	return p.write(nil, b, off, src, end)
}

// write is Put of base's content, in own's buffer (own is base or nil).
func (p *Buffers) write(own, base []byte, off int, src []byte, end int) []byte {
	nz := LastNonzero(src)
	n := len(base)
	if nz > 0 {
		n = max(n, LineUp(off+nz))
	}
	b := own
	if own == nil || n > cap(own) {
		// A new buffer takes base's bytes only outside [off, end): src and
		// its zeros cover the rest below.
		b = p.alloc(n)
		lo := min(off, n)
		clear(b[copy(b[:lo], base):lo])
		if end < n {
			clear(b[end+copy(b[end:], base[min(end, len(base)):]):])
		}
		p.Release(own)
	} else if k := len(b); n > k {
		b = b[:n]
		clear(b[k:])
	}
	if off < len(b) {
		k := copy(b[off:], src)
		clear(b[off+k : min(end, len(b))])
	}
	if hi := off + nz; hi < len(b) {
		top := len(b)
		if end >= top {
			top = hi // src's zeros run to the held end
		}
		b = b[:LineUp(LastNonzero(b[:top]))]
	}
	return b
}
