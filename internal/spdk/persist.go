package spdk

import (
	"encoding/binary"
	"fmt"

	"aquila/internal/detutil"
	"aquila/internal/sim/engine"
)

// On-device metadata, as SPDK Blobstore keeps it: cluster 0 is reserved for
// the super block and blob metadata pages; Persist serializes every blob
// (id, size, cluster list, xattrs) and Load reconstructs the store — so an
// Aquila restart finds its files again.

const (
	persistMagic = 0x53424C42 // "SBLB"
	mdCapacity   = ClusterSize
)

// Persist writes the blobstore metadata to cluster 0.
func (bs *Blobstore) Persist(p *engine.Proc) {
	buf := make([]byte, 0, 4096)
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], persistMagic)
	buf = append(buf, tmp[:4]...)
	binary.LittleEndian.PutUint64(tmp[:], uint64(bs.nextID))
	buf = append(buf, tmp[:]...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(bs.blobs)))
	buf = append(buf, tmp[:4]...)
	for id := BlobID(1); id < bs.nextID; id++ {
		b, ok := bs.blobs[id]
		if !ok {
			continue
		}
		binary.LittleEndian.PutUint64(tmp[:], uint64(b.ID))
		buf = append(buf, tmp[:]...)
		binary.LittleEndian.PutUint64(tmp[:], b.size)
		buf = append(buf, tmp[:]...)
		binary.LittleEndian.PutUint32(tmp[:4], uint32(len(b.clusters)))
		buf = append(buf, tmp[:4]...)
		for _, c := range b.clusters {
			binary.LittleEndian.PutUint64(tmp[:], c)
			buf = append(buf, tmp[:]...)
		}
		binary.LittleEndian.PutUint16(tmp[:2], uint16(len(b.xattrs)))
		buf = append(buf, tmp[:2]...)
		for _, k := range detutil.SortedKeys(b.xattrs) {
			v := b.xattrs[k]
			binary.LittleEndian.PutUint16(tmp[:2], uint16(len(k)))
			buf = append(buf, tmp[:2]...)
			buf = append(buf, k...)
			binary.LittleEndian.PutUint16(tmp[:2], uint16(len(v)))
			buf = append(buf, tmp[:2]...)
			buf = append(buf, v...)
		}
	}
	out := make([]byte, 4+len(buf))
	binary.LittleEndian.PutUint32(out, uint32(len(buf)))
	copy(out[4:], buf)
	if len(out) > mdCapacity {
		panic(fmt.Sprintf("spdk: metadata %d bytes exceeds the md cluster", len(out)))
	}
	bs.drv.Write(p, 0, out)
}

// LoadBlobstore reconstructs a persisted blobstore from the device.
func LoadBlobstore(p *engine.Proc, drv *Driver) (*Blobstore, error) {
	hdr := make([]byte, 4)
	drv.Read(p, 0, hdr)
	n := binary.LittleEndian.Uint32(hdr)
	if n == 0 || n > mdCapacity {
		return nil, fmt.Errorf("spdk: no persisted blobstore (md length %d)", n)
	}
	buf := make([]byte, n)
	drv.Read(p, 4, buf)
	if binary.LittleEndian.Uint32(buf) != persistMagic {
		return nil, fmt.Errorf("spdk: bad blobstore magic")
	}
	bs := &Blobstore{
		drv:     drv,
		blobs:   make(map[BlobID]*Blob),
		totalCl: drv.dev.Capacity() / ClusterSize,
		mdCost:  1500,
	}
	pos := 4
	bs.nextID = BlobID(binary.LittleEndian.Uint64(buf[pos:]))
	pos += 8
	count := int(binary.LittleEndian.Uint32(buf[pos:]))
	pos += 4
	used := map[uint64]bool{0: true} // md cluster
	for i := 0; i < count; i++ {
		b := &Blob{xattrs: make(map[string][]byte)}
		b.ID = BlobID(binary.LittleEndian.Uint64(buf[pos:]))
		pos += 8
		b.size = binary.LittleEndian.Uint64(buf[pos:])
		pos += 8
		nc := int(binary.LittleEndian.Uint32(buf[pos:]))
		pos += 4
		for j := 0; j < nc; j++ {
			c := binary.LittleEndian.Uint64(buf[pos:])
			pos += 8
			b.clusters = append(b.clusters, c)
			used[c] = true
		}
		nx := int(binary.LittleEndian.Uint16(buf[pos:]))
		pos += 2
		for j := 0; j < nx; j++ {
			kl := int(binary.LittleEndian.Uint16(buf[pos:]))
			pos += 2
			k := string(buf[pos : pos+kl])
			pos += kl
			vl := int(binary.LittleEndian.Uint16(buf[pos:]))
			pos += 2
			v := append([]byte(nil), buf[pos:pos+vl]...)
			pos += vl
			b.xattrs[k] = v
		}
		bs.blobs[b.ID] = b
	}
	// Rebuild the free list from the complement of used clusters.
	for c := bs.totalCl; c > 0; c-- {
		if !used[c-1] {
			bs.freeCl = append(bs.freeCl, c-1)
		}
	}
	return bs, nil
}

// LoadFileMap rebuilds the name table from the persisted "name" xattrs.
func LoadFileMap(p *engine.Proc, bs *Blobstore) *FileMap {
	fm := NewFileMap(bs)
	for id, b := range bs.blobs {
		if name, ok := b.xattrs["name"]; ok {
			fm.names[string(name)] = id
		}
	}
	_ = p
	return fm
}
