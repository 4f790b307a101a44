// Package spdk reimplements the slice of the Storage Performance Development
// Kit that Aquila uses (§3.3): a polled-mode user-space NVMe driver that
// bypasses the kernel entirely, and Blobstore, a flat namespace of blobs with
// cluster-granular allocation and runtime create/resize/delete. Aquila layers
// a file abstraction over blobs (FileMap) and uses Blobstore's direct,
// unbuffered I/O path.
package spdk

import (
	"fmt"

	"aquila/internal/sim/device"
	"aquila/internal/sim/engine"
)

// ClusterSize is Blobstore's allocation unit (SPDK default: 1 MB).
const ClusterSize = 1 << 20

// Driver cost model (cycles): polled-mode submission and completion are a
// few hundred cycles each — no syscalls, no interrupts, no context switches.
const (
	submitCost   = 400
	completeCost = 300
)

// Driver is a user-space polled-mode NVMe driver bound to one device.
// The device must be dedicated to this process (§3.3: direct access requires
// devices not shared with other processes).
type Driver struct {
	dev *device.NVMe

	// Stats.
	Reads      uint64
	Writes     uint64
	PollCycles uint64
}

// NewDriver binds a driver to a dedicated NVMe device.
func NewDriver(dev *device.NVMe) *Driver {
	return &Driver{dev: dev}
}

// Device returns the underlying NVMe device.
func (d *Driver) Device() *device.NVMe { return d.dev }

// Read issues a read and polls for completion: the CPU stays busy (system
// time) until the device finishes — the polling cost the paper notes for
// kernel-bypass frameworks.
func (d *Driver) Read(p *engine.Proc, off uint64, buf []byte) {
	d.Reads++
	p.AdvanceSystem(submitCost)
	done := d.dev.Submit(p.Now(), len(buf), false)
	if done > p.Now() {
		d.PollCycles += done - p.Now()
		p.AdvanceSystem(done - p.Now()) // busy poll
	}
	p.AdvanceSystem(completeCost)
	d.dev.ReadAt(off, buf)
}

// Write issues a write and polls for completion.
func (d *Driver) Write(p *engine.Proc, off uint64, buf []byte) {
	d.Writes++
	d.dev.WriteAt(off, buf)
	p.AdvanceSystem(submitCost)
	done := d.dev.Submit(p.Now(), len(buf), true)
	d.dev.Persist(off, len(buf), done)
	if done > p.Now() {
		d.PollCycles += done - p.Now()
		p.AdvanceSystem(done - p.Now())
	}
	p.AdvanceSystem(completeCost)
}

// ReadTimed charges only the timing of a read (content handled by caller).
func (d *Driver) ReadTimed(p *engine.Proc, bytes int) {
	d.Reads++
	p.AdvanceSystem(submitCost)
	done := d.dev.Submit(p.Now(), bytes, false)
	if done > p.Now() {
		d.PollCycles += done - p.Now()
		p.AdvanceSystem(done - p.Now())
	}
	p.AdvanceSystem(completeCost)
}

// WriteAsync submits a write without polling for completion (io_uring-style
// deep submission queue, cf. internal/host/iouring): the caller pays
// submission plus a deferred completion-reap charge and receives the device
// completion cycle to wait on later, letting it queue further I/Os behind
// this one instead of busy-polling each in turn.
func (d *Driver) WriteAsync(p *engine.Proc, bytes int) uint64 {
	d.Writes++
	p.AdvanceSystem(submitCost + completeCost)
	return d.dev.Submit(p.Now(), bytes, true)
}

// WriteTimed charges only the timing of a write (content handled by caller)
// and returns the device completion cycle — the durability point the caller
// must pass to Store.Persist for the content it staged.
func (d *Driver) WriteTimed(p *engine.Proc, bytes int) uint64 {
	d.Writes++
	p.AdvanceSystem(submitCost)
	done := d.dev.Submit(p.Now(), bytes, true)
	if done > p.Now() {
		d.PollCycles += done - p.Now()
		p.AdvanceSystem(done - p.Now())
	}
	p.AdvanceSystem(completeCost)
	return done
}

// BlobID identifies a blob in the flat namespace.
type BlobID uint64

// Blob is one blob: a size and an ordered cluster list.
type Blob struct {
	ID       BlobID
	size     uint64
	clusters []uint64 // cluster indices, logical order
	deleted  bool
}

// Size returns the blob's logical size in bytes.
func (b *Blob) Size() uint64 { return b.size }

// Clusters returns the number of clusters allocated.
func (b *Blob) Clusters() int { return len(b.clusters) }

// Blobstore is a flat namespace of blobs over a dedicated NVMe device,
// modeled after SPDK Blobstore with its direct (unbuffered) I/O path.
type Blobstore struct {
	drv    *Driver
	nextID BlobID
	blobs  map[BlobID]*Blob
	freeCl []uint64
	mdCost uint64 // metadata op cost in cycles
}

// NewBlobstore formats a blobstore over the driver's device.
func NewBlobstore(drv *Driver) *Blobstore {
	total := drv.dev.Capacity() / ClusterSize
	bs := &Blobstore{
		drv:    drv,
		nextID: 1,
		blobs:  make(map[BlobID]*Blob),
		mdCost: 1500,
	}
	// Reverse order so low clusters are handed out first; cluster 0 is
	// reserved, as SPDK Blobstore keeps its super block and blob metadata
	// there (the simulation charges metadata writes but stores none: a
	// restart finds its files by re-creating them in order, see crash.go).
	for c := total; c > 1; c-- {
		bs.freeCl = append(bs.freeCl, c-1)
	}
	return bs
}

// FreeClusters returns the number of unallocated clusters.
func (bs *Blobstore) FreeClusters() uint64 { return uint64(len(bs.freeCl)) }

// Drv returns the underlying driver.
func (bs *Blobstore) Drv() *Driver { return bs.drv }

// SetSize updates a blob's logical size within its allocated clusters
// (append bookkeeping; use Resize to change the allocation).
func (bs *Blobstore) SetSize(b *Blob, size uint64) {
	if size > uint64(len(b.clusters))*ClusterSize {
		panic(fmt.Sprintf("spdk: SetSize %d beyond blob %d capacity %d",
			size, b.ID, uint64(len(b.clusters))*ClusterSize))
	}
	b.size = size
}

// Create allocates a new blob with the given size (rounded up to clusters).
func (bs *Blobstore) Create(p *engine.Proc, size uint64) *Blob {
	p.AdvanceSystem(bs.mdCost)
	b := &Blob{ID: bs.nextID}
	bs.nextID++
	bs.blobs[b.ID] = b
	bs.Resize(p, b, size)
	return b
}

// Open returns the blob with the given id.
func (bs *Blobstore) Open(p *engine.Proc, id BlobID) (*Blob, error) {
	p.AdvanceSystem(bs.mdCost)
	b, ok := bs.blobs[id]
	if !ok || b.deleted {
		return nil, fmt.Errorf("spdk: blob %d not found", id)
	}
	return b, nil
}

// Resize grows or shrinks a blob at runtime.
func (bs *Blobstore) Resize(p *engine.Proc, b *Blob, size uint64) {
	p.AdvanceSystem(bs.mdCost)
	want := int((size + ClusterSize - 1) / ClusterSize)
	for len(b.clusters) < want {
		if len(bs.freeCl) == 0 {
			panic("spdk: blobstore out of clusters")
		}
		c := bs.freeCl[len(bs.freeCl)-1]
		bs.freeCl = bs.freeCl[:len(bs.freeCl)-1]
		b.clusters = append(b.clusters, c)
	}
	for len(b.clusters) > want {
		c := b.clusters[len(b.clusters)-1]
		b.clusters = b.clusters[:len(b.clusters)-1]
		bs.freeCl = append(bs.freeCl, c)
		bs.drv.dev.Discard(c*ClusterSize, ClusterSize)
	}
	b.size = size
}

// Delete removes a blob, returning its clusters to the free pool.
func (bs *Blobstore) Delete(p *engine.Proc, b *Blob) {
	p.AdvanceSystem(bs.mdCost)
	bs.Resize(p, b, 0)
	b.deleted = true
	delete(bs.blobs, b.ID)
}

// DevOff translates a blob offset to a device offset. The range must not
// cross a cluster boundary.
func (bs *Blobstore) DevOff(b *Blob, off uint64) uint64 {
	cl := off / ClusterSize
	if int(cl) >= len(b.clusters) {
		panic(fmt.Sprintf("spdk: blob %d offset %d beyond %d clusters", b.ID, off, len(b.clusters)))
	}
	return b.clusters[cl]*ClusterSize + off%ClusterSize
}

// ReadBlob reads from the blob through the direct path (no buffering).
func (bs *Blobstore) ReadBlob(p *engine.Proc, b *Blob, off uint64, buf []byte) {
	bs.checkRange(b, off, len(buf))
	for n := 0; n < len(buf); {
		co := int((off + uint64(n)) % ClusterSize)
		chunk := ClusterSize - co
		if chunk > len(buf)-n {
			chunk = len(buf) - n
		}
		bs.drv.Read(p, bs.DevOff(b, off+uint64(n)), buf[n:n+chunk])
		n += chunk
	}
}

// WriteBlob writes to the blob through the direct path.
func (bs *Blobstore) WriteBlob(p *engine.Proc, b *Blob, off uint64, buf []byte) {
	bs.checkRange(b, off, len(buf))
	for n := 0; n < len(buf); {
		co := int((off + uint64(n)) % ClusterSize)
		chunk := ClusterSize - co
		if chunk > len(buf)-n {
			chunk = len(buf) - n
		}
		bs.drv.Write(p, bs.DevOff(b, off+uint64(n)), buf[n:n+chunk])
		n += chunk
	}
}

func (bs *Blobstore) checkRange(b *Blob, off uint64, n int) {
	if off+uint64(n) > uint64(len(b.clusters))*ClusterSize {
		panic(fmt.Sprintf("spdk: blob %d access [%d,%d) beyond capacity %d",
			b.ID, off, off+uint64(n), uint64(len(b.clusters))*ClusterSize))
	}
}

// FileMap is Aquila's transparent file-to-blob translation (§3.3): it
// intercepts open/creat-style calls and maps names to blobs.
type FileMap struct {
	bs    *Blobstore
	names map[string]BlobID
}

// NewFileMap creates an empty file table over a blobstore.
func NewFileMap(bs *Blobstore) *FileMap {
	return &FileMap{bs: bs, names: make(map[string]BlobID)}
}

// Blobstore returns the underlying blobstore.
func (fm *FileMap) Blobstore() *Blobstore { return fm.bs }

// Create makes a named blob of the given size.
func (fm *FileMap) Create(p *engine.Proc, name string, size uint64) *Blob {
	if _, ok := fm.names[name]; ok {
		panic(fmt.Sprintf("spdk: create of existing file %q", name))
	}
	b := fm.bs.Create(p, size)
	p.AdvanceSystem(fm.bs.mdCost) // tagging the blob with its name is one more metadata write
	fm.names[name] = b.ID
	return b
}

// Open resolves a name to its blob.
func (fm *FileMap) Open(p *engine.Proc, name string) *Blob {
	id, ok := fm.names[name]
	if !ok {
		panic(fmt.Sprintf("spdk: open of missing file %q", name))
	}
	b, err := fm.bs.Open(p, id)
	if err != nil {
		panic(err)
	}
	return b
}

// Exists reports whether a name is bound (no cost: test helper).
func (fm *FileMap) Exists(name string) bool {
	_, ok := fm.names[name]
	return ok
}

// Delete unbinds a name and deletes its blob.
func (fm *FileMap) Delete(p *engine.Proc, name string) {
	id, ok := fm.names[name]
	if !ok {
		return
	}
	b, err := fm.bs.Open(p, id)
	if err == nil {
		fm.bs.Delete(p, b)
	}
	delete(fm.names, name)
}
