package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"aquila/internal/iface"
	"aquila/internal/sim/engine"
)

// sstMagic marks a valid table footer.
const sstMagic = 0x5354424C // "LBTS"

// footerSize is the fixed footer at the end of every SST.
const footerSize = 16

// SST is one static sorted table: data blocks, a block index and a bloom
// filter. Index and filter are pinned in memory once opened, as RocksDB
// does with its table metadata.
type SST struct {
	id         uint64
	file       iface.File
	mapping    iface.Mapping // non-nil in mmio mode
	blockCount int
	firstKeys  [][]byte
	filter     *bloom
	smallest   []byte
	largest    []byte
	entries    int
}

// Entries returns the number of records.
func (t *SST) Entries() int { return t.entries }

// sstBuilder accumulates sorted records into the table's image and writes it
// out in one pass. The image is the one place a key lives while the table is
// built: finish reads the block index, the bloom filter and the key range
// back out of it instead of keeping a second copy of every key.
type sstBuilder struct {
	blockSize int
	buf       []byte // data blocks so far; finish appends index, bloom, footer
	blockFill int
	lastKey   int // offset in buf of the newest record's key
	entries   int
}

// newSSTBuilder sizes the image once from what the caller knows it will add —
// the memtable's size for a flush, the table target for a bulk load or a
// compaction, which both close a table one record past it — plus a sixteenth
// for index, bloom and footer (1-4 % of the data for records of 40 bytes and
// up). A table that outgrows the estimate still builds: append grows the
// image as it always did. The image belongs to the caller: finish hands it
// back, and a bulk load or a compaction builds its next table in it (reuse),
// so one call allocates one image however many tables it writes.
func newSSTBuilder(blockSize, dataBytes int) *sstBuilder {
	return &sstBuilder{blockSize: blockSize, buf: make([]byte, 0, dataBytes+dataBytes/16+2*blockSize)}
}

// reuse empties the builder for the next table, built in image — the one the
// previous finish returned — from length zero. Every byte of a table is
// appended, so nothing of the previous table past the new length is read.
func (b *sstBuilder) reuse(image []byte) {
	*b = sstBuilder{blockSize: b.blockSize, buf: image[:0]}
}

// add appends a record; keys must arrive in strictly ascending order. It
// copies key and value into the image and keeps neither.
func (b *sstBuilder) add(key, value []byte) {
	need := 4 + len(key) + len(value)
	if need > b.blockSize {
		panic(fmt.Sprintf("lsm: record of %d bytes exceeds block size %d", need, b.blockSize))
	}
	if b.blockFill+need > b.blockSize {
		b.padBlock()
	}
	b.buf = binary.LittleEndian.AppendUint16(b.buf, uint16(len(key)))
	b.buf = binary.LittleEndian.AppendUint16(b.buf, uint16(len(value)))
	b.lastKey = len(b.buf)
	b.buf = append(b.buf, key...)
	b.buf = append(b.buf, value...)
	b.blockFill += need
	b.entries++
}

// zeroPad is what every builder pads its blocks from.
var zeroPad [4096]byte

// padBlock zero-fills the open block to its end.
func (b *sstBuilder) padBlock() {
	if b.blockFill == 0 {
		return
	}
	for pad := b.blockSize - b.blockFill; pad > 0; pad -= min(pad, len(zeroPad)) {
		b.buf = append(b.buf, zeroPad[:min(pad, len(zeroPad))]...)
	}
	b.blockFill = 0
}

// estimatedSize returns the current data size.
func (b *sstBuilder) estimatedSize() int { return len(b.buf) }

// finish writes the table image to a file created through ns and returns the
// opened SST and the image, which the table does not keep: the caller may
// build its next table in it (reuse) or drop it.
func (b *sstBuilder) finish(p *engine.Proc, ns iface.Namespace, name string, id uint64, mmio bool) (*SST, []byte) {
	b.padBlock()
	dataLen := len(b.buf)
	nBlocks := dataLen / b.blockSize
	// One pass over the blocks feeds both: the index region takes every
	// block's first key from where add put it, the filter every key.
	filter := newBloom(b.entries, 10)
	image := binary.LittleEndian.AppendUint32(b.buf, uint32(nBlocks))
	for off := 0; off < dataLen; off += b.blockSize {
		blk := image[off : off+b.blockSize]
		kl := binary.LittleEndian.Uint16(blk)
		image = binary.LittleEndian.AppendUint16(image, kl)
		image = append(image, blk[4:4+int(kl)]...)
		scanBlock(blk, func(key, _ []byte) bool {
			filter.add(key)
			return true
		})
	}
	bloomOff := len(image)
	image = filter.appendTo(image)
	metaEnd := len(image) // the footer does not count itself
	image = binary.LittleEndian.AppendUint32(image, uint32(dataLen))
	image = binary.LittleEndian.AppendUint32(image, uint32(bloomOff))
	image = binary.LittleEndian.AppendUint32(image, uint32(metaEnd))
	image = binary.LittleEndian.AppendUint32(image, sstMagic)

	f := ns.Create(p, name, uint64(len(image)))
	// Write in 1 MB chunks, as compactions issue large sequential I/Os.
	const chunk = 1 << 20
	for off := 0; off < len(image); off += chunk {
		end := off + chunk
		if end > len(image) {
			end = len(image)
		}
		f.Pwrite(p, image[off:end], uint64(off))
	}
	f.Fsync(p)

	// The table keeps its own copy of the index region and of the last key;
	// the image goes back to the caller.
	t := &SST{
		id: id, file: f,
		blockCount: nBlocks, firstKeys: indexKeys(bytes.Clone(image[dataLen:bloomOff])),
		filter: filter, entries: b.entries,
	}
	if nBlocks > 0 {
		t.smallest = t.firstKeys[0]
		kl := int(binary.LittleEndian.Uint16(image[b.lastKey-4:]))
		t.largest = bytes.Clone(image[b.lastKey : b.lastKey+kl])
	}
	if mmio {
		t.mapping = ns.Mmap(p, f, uint64(len(image)))
	}
	return t, image
}

// indexKeys parses a table's index region into its blocks' first keys. They
// are slices of idx, which the table keeps.
func indexKeys(idx []byte) [][]byte {
	keys := make([][]byte, binary.LittleEndian.Uint32(idx))
	pos := 4
	for i := range keys {
		kl := int(binary.LittleEndian.Uint16(idx[pos:]))
		keys[i] = idx[pos+2 : pos+2+kl : pos+2+kl]
		pos += 2 + kl
	}
	return keys
}

// openSST loads an existing table's metadata.
func openSST(p *engine.Proc, ns iface.Namespace, name string, id uint64, blockSize int, mmio bool) *SST {
	f := ns.Open(p, name)
	size := f.Size()
	var footer [footerSize]byte
	f.Pread(p, footer[:], size-footerSize)
	if binary.LittleEndian.Uint32(footer[12:]) != sstMagic {
		panic(fmt.Sprintf("lsm: bad magic in %s", name))
	}
	dataLen := binary.LittleEndian.Uint32(footer[0:])
	bloomOff := binary.LittleEndian.Uint32(footer[4:])
	imgLen := binary.LittleEndian.Uint32(footer[8:])
	meta := make([]byte, imgLen-dataLen)
	f.Pread(p, meta, uint64(dataLen))

	// The table keeps meta: its first keys and filter bits are slices of it.
	idxLen := bloomOff - dataLen
	firstKeys := indexKeys(meta[:idxLen])
	nBlocks := len(firstKeys)
	filter, _ := unmarshalBloom(meta[idxLen:])

	t := &SST{
		id: id, file: f,
		blockCount: nBlocks, firstKeys: firstKeys, filter: filter,
	}
	if nBlocks > 0 {
		t.smallest = firstKeys[0]
	}
	if mmio {
		t.mapping = ns.Mmap(p, f, size)
	}
	// Largest key: scan the last block sequentially.
	if nBlocks > 0 {
		blk := make([]byte, blockSize)
		f.Pread(p, blk, uint64(nBlocks-1)*uint64(blockSize))
		scanBlock(blk, func(key, value []byte) bool {
			t.largest = append(t.largest[:0], key...)
			return true
		})
		// The exact record count is not persisted; reopened tables
		// report -1 (metadata consumers treat it as unknown).
		t.entries = -1
	}
	return t
}

// scanBlock walks a block's records in order, calling fn until it returns
// false. Returns the number of entries visited.
func scanBlock(blk []byte, fn func(key, value []byte) bool) int {
	pos, n := 0, 0
	for pos+4 <= len(blk) {
		kl := int(binary.LittleEndian.Uint16(blk[pos:]))
		vl := int(binary.LittleEndian.Uint16(blk[pos+2:]))
		if kl == 0 {
			break
		}
		pos += 4
		n++
		if !fn(blk[pos:pos+kl], blk[pos+kl:pos+kl+vl]) {
			break
		}
		pos += kl + vl
	}
	return n
}

// blockFor returns the index of the block that may contain key.
func (t *SST) blockFor(key []byte) int {
	// First block whose firstKey > key, minus one.
	i := sort.Search(t.blockCount, func(i int) bool {
		return bytes.Compare(t.firstKeys[i], key) > 0
	})
	if i == 0 {
		return 0
	}
	return i - 1
}

// contains reports whether key falls in the table's range.
func (t *SST) contains(key []byte) bool {
	return bytes.Compare(key, t.smallest) >= 0 && bytes.Compare(key, t.largest) <= 0
}
