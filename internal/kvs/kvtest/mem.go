// Package kvtest is an in-memory iface.Namespace for the key-value stores'
// own tests and benchmarks. A file is a byte slice and a mapping is the
// file's bytes: no access costs a cycle, yields, or allocates, so
// testing.AllocsPerRun, Mallocs and -benchmem over it count what the store
// allocates and nothing of a world underneath.
package kvtest

import (
	"fmt"
	"runtime"

	"aquila/internal/iface"
	"aquila/internal/sim/engine"
)

// Namespace holds files by name; the zero value is empty and ready.
type Namespace struct{ files map[string]*File }

var _ iface.Namespace = (*Namespace)(nil)

// File is a fixed-size in-memory file.
type File struct {
	name string
	data []byte
}

// Mapping maps a File's bytes.
type Mapping struct{ f *File }

func (ns *Namespace) Create(_ *engine.Proc, name string, size uint64) iface.File {
	if ns.files == nil {
		ns.files = make(map[string]*File)
	}
	f := &File{name: name, data: make([]byte, size)}
	ns.files[name] = f
	return f
}

func (ns *Namespace) Delete(_ *engine.Proc, name string) { delete(ns.files, name) }

func (ns *Namespace) Mmap(_ *engine.Proc, f iface.File, size uint64) iface.Mapping {
	mf := f.(*File)
	if size > uint64(len(mf.data)) {
		panic(fmt.Sprintf("kvtest: mapping %d bytes of %d-byte file %q", size, len(mf.data), mf.name))
	}
	return &Mapping{mf}
}

func (f *File) Name() string { return f.name }
func (f *File) Size() uint64 { return uint64(len(f.data)) }

func (f *File) Pread(_ *engine.Proc, buf []byte, off uint64) error {
	copy(buf, f.data[off:off+uint64(len(buf))])
	return nil
}

func (f *File) Pwrite(_ *engine.Proc, buf []byte, off uint64) error {
	copy(f.data[off:off+uint64(len(buf))], buf)
	return nil
}

func (f *File) Fsync(*engine.Proc) error { return nil }

func (m *Mapping) Size() uint64 { return m.f.Size() }

func (m *Mapping) Load(_ *engine.Proc, off uint64, buf []byte) {
	copy(buf, m.f.data[off:off+uint64(len(buf))])
}

func (m *Mapping) Store(_ *engine.Proc, off uint64, buf []byte) {
	copy(m.f.data[off:off+uint64(len(buf))], buf)
}

func (m *Mapping) Msync(*engine.Proc) error                      { return nil }
func (m *Mapping) MsyncRange(*engine.Proc, uint64, uint64) error { return nil }
func (m *Mapping) Munmap(*engine.Proc)                           {}
func (m *Mapping) Advise(*engine.Proc, iface.Advice)             {}

// Mallocs runs fn windows times and returns the fewest heap objects one run
// allocated. Now and then the runtime's own work allocates inside a MemStats
// window, more often with another process loading the machine, so a test
// that holds a path to a count takes the least of three; a benchmark, one.
func Mallocs(windows int, fn func()) uint64 {
	least := ^uint64(0)
	for range windows {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}
