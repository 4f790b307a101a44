package spdk

import (
	"bytes"
	"testing"
	"testing/quick"

	"aquila/internal/sim/device"
	"aquila/internal/sim/engine"
)

const mib = 1 << 20

func newBS() (*engine.Engine, *Blobstore) {
	e := engine.New(engine.Config{NumCPUs: 4, Seed: 1})
	drv := NewDriver(device.NewNVMe(512*mib, device.DefaultNVMeConfig()))
	return e, NewBlobstore(drv)
}

func run1(e *engine.Engine, fn func(p *engine.Proc)) {
	e.Spawn(0, "t0", fn)
	e.Run()
}

func TestDriverPollingChargesBusyTime(t *testing.T) {
	e := engine.New(engine.Config{NumCPUs: 1, Seed: 1})
	drv := NewDriver(device.NewNVMe(16*mib, device.DefaultNVMeConfig()))
	var proc *engine.Proc
	proc = e.Spawn(0, "t", func(p *engine.Proc) {
		drv.Read(p, 0, make([]byte, 4096))
	})
	e.Run()
	// Polling means the wait is system (busy) time, not iowait.
	if proc.Accounted(engine.KindIOWait) != 0 {
		t.Errorf("SPDK read should not sleep: iowait=%d", proc.Accounted(engine.KindIOWait))
	}
	lat := device.DefaultNVMeConfig().ReadLatency
	if sys := proc.Accounted(engine.KindSystem); sys < lat {
		t.Errorf("system cycles %d < device latency %d", sys, lat)
	}
	if drv.PollCycles == 0 {
		t.Error("no poll cycles recorded")
	}
}

func TestBlobCreateResizeDelete(t *testing.T) {
	e, bs := newBS()
	run1(e, func(p *engine.Proc) {
		before := bs.FreeClusters()
		b := bs.Create(p, 3*mib)
		if b.Size() != 3*mib || b.Clusters() != 3 {
			t.Errorf("size=%d clusters=%d", b.Size(), b.Clusters())
		}
		if bs.FreeClusters() != before-3 {
			t.Errorf("free clusters = %d, want %d", bs.FreeClusters(), before-3)
		}
		bs.Resize(p, b, 5*mib)
		if b.Clusters() != 5 {
			t.Errorf("clusters after grow = %d", b.Clusters())
		}
		bs.Resize(p, b, 1*mib)
		if b.Clusters() != 1 {
			t.Errorf("clusters after shrink = %d", b.Clusters())
		}
		bs.Delete(p, b)
		if bs.FreeClusters() != before {
			t.Errorf("clusters leaked: %d != %d", bs.FreeClusters(), before)
		}
		if _, err := bs.Open(p, b.ID); err == nil {
			t.Error("open of deleted blob succeeded")
		}
	})
}

func TestBlobIORoundTrip(t *testing.T) {
	e, bs := newBS()
	run1(e, func(p *engine.Proc) {
		b := bs.Create(p, 4*mib)
		data := make([]byte, 2*mib)
		for i := range data {
			data[i] = byte(i * 7)
		}
		// Write crossing cluster boundaries.
		bs.WriteBlob(p, b, mib/2, data)
		got := make([]byte, len(data))
		bs.ReadBlob(p, b, mib/2, got)
		if !bytes.Equal(got, data) {
			t.Error("blob round trip mismatch")
		}
	})
}

func TestBlobClustersNeedNotBeContiguous(t *testing.T) {
	e, bs := newBS()
	run1(e, func(p *engine.Proc) {
		a := bs.Create(p, 1*mib)
		b := bs.Create(p, 1*mib)
		bs.Resize(p, a, 2*mib) // a's second cluster comes after b's
		data := []byte("spans the discontiguity")
		bs.WriteBlob(p, a, mib-8, data)
		got := make([]byte, len(data))
		bs.ReadBlob(p, a, mib-8, got)
		if !bytes.Equal(got, data) {
			t.Error("discontiguous blob I/O mismatch")
		}
		_ = b
	})
}

func TestFileMap(t *testing.T) {
	e, bs := newBS()
	fm := NewFileMap(bs)
	run1(e, func(p *engine.Proc) {
		b := fm.Create(p, "sst-000001", 64*mib)
		if fm.names["sst-000001"] != b.ID {
			t.Error("name bound to a different blob")
		}
		fm.Delete(p, "sst-000001")
		if _, ok := fm.names["sst-000001"]; ok {
			t.Error("file exists after delete")
		}
		if _, err := bs.Open(p, b.ID); err == nil {
			t.Error("blob outlives its name")
		}
	})
}

// Property: blobstore cluster accounting is conserved across create/resize/
// delete sequences.
func TestClusterConservationProperty(t *testing.T) {
	check := func(sizes []uint8) bool {
		e, bs := newBS()
		total := bs.FreeClusters()
		ok := true
		run1(e, func(p *engine.Proc) {
			var blobs []*Blob
			used := uint64(0)
			for _, s := range sizes {
				sz := uint64(s%8) * mib
				if used+8 >= total {
					break
				}
				b := bs.Create(p, sz)
				blobs = append(blobs, b)
				used += uint64(b.Clusters())
				if bs.FreeClusters() != total-used {
					ok = false
				}
			}
			for _, b := range blobs {
				used -= uint64(b.Clusters())
				bs.Delete(p, b)
			}
			if bs.FreeClusters() != total {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
