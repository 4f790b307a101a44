package core

import (
	"bytes"
	"errors"
	"testing"

	"aquila/internal/host"
	"aquila/internal/sim/device"
	"aquila/internal/sim/engine"
	"aquila/internal/sim/mem"
	"aquila/internal/spdk"
)

// engineWorld boots a two-core world over one engine and hands back the
// function that attaches a fault plan to the engine's device.
type engineWorld struct {
	name string
	boot func() (*engine.Engine, func(*device.FaultPlan), func(p *engine.Proc) *Runtime)
}

var engineWorlds = []engineWorld{
	{"DAX-pmem", func() (*engine.Engine, func(*device.FaultPlan), func(p *engine.Proc) *Runtime) {
		e, pm, boot := faultDaxWorld(16*mib, 2, nil)
		return e, func(fp *device.FaultPlan) { pm.InjectFaults("pmem0", fp) }, boot
	}},
	{"SPDK-NVMe", func() (*engine.Engine, func(*device.FaultPlan), func(p *engine.Proc) *Runtime) {
		e, nvme, boot := faultSpdkWorld(16*mib, 2, nil)
		return e, func(fp *device.FaultPlan) { nvme.InjectFaults("nvme0", fp) }, boot
	}},
	{"HOST-pmem", func() (*engine.Engine, func(*device.FaultPlan), func(p *engine.Proc) *Runtime) {
		e := engine.New(engine.Config{NumCPUs: 2, Seed: 1})
		pm := device.NewPMem(512*mib, device.DefaultPMemConfig())
		os := host.NewOS(e, host.NewPMemDisk("pmem0", pm), 64*mib)
		return e, func(fp *device.FaultPlan) { pm.InjectFaults("pmem0", fp) }, func(p *engine.Proc) *Runtime {
			return NewRuntime(p, os, NewHostEngine(os), Config{CacheBytes: 16 * mib})
		}
	}},
}

// ioOutcome is what one ioRun did.
type ioOutcome struct {
	done            uint64
	err             error
	elapsed, iowait uint64 // the caller's cycles in the call, and the I/O wait among them
	movedMid        bool   // the content had moved halfway through the spike
	moved           bool   // the content had moved when the call returned
	owed            bool   // the device owed a staged write its durability point
	st              *device.Store
}

// ioOnce boots a world of w and runs one ioRun of op over page 3 of a fresh
// file, under the fault rule rule makes for the page's device offset (none
// when rule is nil): a write or submission carries a marked frame, a read
// fills an empty frame from the marked page. A proc on the second core looks
// at the content halfway through spike cycles.
func ioOnce(w engineWorld, op ioOp, rule func(off uint64) device.FaultRule, spike uint64) ioOutcome {
	e, inject, boot := w.boot()
	var o ioOutcome
	e.Spawn(0, "io", func(p *engine.Proc) {
		rt := boot(p)
		f := rt.CreateFile(p, "data", 4*mib)
		x := rt.Engine.extent(f, 3, 1)
		o.st = x.st
		mark := make([]byte, 8)
		pageMark(mark, 3)
		fr := mem.NewAllocator(mib, 1).Alloc(0)
		if op == ioRead {
			x.st.WriteAt(x.off, mark)
			x.st.Persist(x.off, len(mark), 0)
			x.st.SettleAll()
		} else {
			fr.WriteAt(0, mark)
		}
		moved := func() bool {
			got := make([]byte, len(mark))
			if op == ioRead {
				fr.ReadAt(got, 0)
			} else {
				x.st.ReadAt(x.off, got)
			}
			return bytes.Equal(got, mark)
		}
		if rule != nil {
			inject(&device.FaultPlan{Rules: []device.FaultRule{rule(x.off)}})
		}
		t0, w0 := p.Now(), p.Accounted(engine.KindIOWait)
		if spike > 0 {
			p.Engine().Spawn(1, "look", func(q *engine.Proc) {
				q.WaitUntil(t0+spike/2, engine.KindIOWait)
				o.movedMid = moved()
			})
		}
		o.done, o.err = rt.ioRun(p, op, f, 3, []*mem.Frame{fr})
		o.elapsed, o.iowait = p.Now()-t0, p.Accounted(engine.KindIOWait)-w0
		o.moved = moved()
		_, o.owed = x.st.Owed()
	})
	e.Run()
	return o
}

// The run path's orderings, engine by engine, pinned against the same call
// without the spike: where a latency spike lands (a polled SPDK command
// stalls before its content moves, everything else moves first), how much of
// it the completion and the caller's I/O wait carry (a submission waits for
// nothing; a host syscall's completion is the device's, the spike waited out
// after it), and that a write's durability point is the completion ioRun
// returns — a crash one cycle before it loses the page, a crash at it keeps
// it. HOST cannot overlap, so its submission is a blocking write.
func TestEngineLatencySpikeFaults(t *testing.T) {
	const spike = 40_000
	spiked := func(off uint64) device.FaultRule {
		return device.FaultRule{Kind: device.FaultLatencySpike, Off: off, Len: pageSize, Delay: spike}
	}
	ops := []struct {
		name string
		op   ioOp
	}{{"read", ioRead}, {"write", ioWrite}, {"submit", ioSubmit}}
	want := map[string][3]struct {
		stallFirst        bool
		doneBy, waitedFor uint64 // the spike's share of the completion and of the I/O wait
	}{
		"DAX-pmem":  {{false, spike, spike}, {false, spike, spike}, {false, spike, 0}},
		"SPDK-NVMe": {{true, spike, spike}, {true, spike, spike}, {false, spike, 0}},
		"HOST-pmem": {{false, 0, spike}, {false, 0, spike}, {false, 0, spike}},
	}
	for _, w := range engineWorlds {
		for i, c := range ops {
			t.Run(w.name+"/"+c.name, func(t *testing.T) {
				wt := want[w.name][i]
				plain, got := ioOnce(w, c.op, nil, 0), ioOnce(w, c.op, spiked, spike)
				if plain.err != nil || got.err != nil {
					t.Fatalf("errors %v and %v from a call no rule fails", plain.err, got.err)
				}
				if got.movedMid == wt.stallFirst || !got.moved {
					t.Errorf("content moved halfway through the spike: %v, at return: %v; want %v and true",
						got.movedMid, got.moved, !wt.stallFirst)
				}
				if got.done != plain.done+wt.doneBy {
					t.Errorf("completion %d, %d without the spike: want it %d later", got.done, plain.done, wt.doneBy)
				}
				if got.iowait != plain.iowait+wt.waitedFor || got.elapsed != plain.elapsed+wt.waitedFor {
					t.Errorf("I/O wait %d of %d cycles, without the spike %d of %d: want both %d more",
						got.iowait, got.elapsed, plain.iowait, plain.elapsed, wt.waitedFor)
				}
				if c.op == ioRead {
					return
				}
				if got.owed {
					t.Error("the write left its page owed a durability point")
				}
				if r := got.st.Crash(got.done-1, nil, 0); r.DroppedBlocks != 1 {
					t.Errorf("a crash a cycle before the completion dropped %d blocks, want the page's 1", r.DroppedBlocks)
				}
				again := ioOnce(w, c.op, spiked, spike)
				if r := again.st.Crash(again.done, nil, 0); again.done != got.done || r.DroppedBlocks != 0 {
					t.Errorf("a crash at the completion (%d, first run %d) dropped %d blocks, want 0",
						again.done, got.done, r.DroppedBlocks)
				}
			})
		}
	}
}

// A write the device fails costs every engine its full command, moves and
// persists nothing and leaves nothing owed, and its error comes back.
func TestEngineFailedWriteFaults(t *testing.T) {
	failed := func(off uint64) device.FaultRule {
		return device.FaultRule{Kind: device.FaultTransientWrite, Off: off, Len: pageSize, Every: 1}
	}
	for _, w := range engineWorlds {
		t.Run(w.name, func(t *testing.T) {
			plain, got := ioOnce(w, ioWrite, nil, 0), ioOnce(w, ioWrite, failed, 0)
			var de *device.IOError
			if !errors.As(got.err, &de) || de.Kind != device.FaultTransientWrite || got.done != 0 {
				t.Fatalf("failed write returned (%d, %v), want (0, a transient write error)", got.done, got.err)
			}
			if got.moved || got.owed {
				t.Errorf("failed write: content on the device %v, owed %v; want neither", got.moved, got.owed)
			}
			if got.elapsed != plain.elapsed || got.iowait != plain.iowait {
				t.Errorf("failed write took %d cycles (%d waiting), a good one %d (%d)",
					got.elapsed, got.iowait, plain.elapsed, plain.iowait)
			}
		})
	}
}

// A direct read or write across a blob's cluster boundary is one polled
// command per cluster, and the fault plan sees each before it is issued: a
// rule on the second cluster fails the call after the first chunk went
// through — for a write, staged and persisted.
func TestSPDKDirectFaultsEveryCluster(t *testing.T) {
	const first = spdk.ClusterSize/pageSize - 1 // the last page of cluster 0
	for _, write := range []bool{false, true} {
		e, nvme, boot := faultSpdkWorld(16*mib, 1, nil)
		e.Spawn(0, "t", func(p *engine.Proc) {
			rt := boot(p)
			af := (&Namespace{RT: rt}).Create(p, "d", 2*spdk.ClusterSize).(*AqFile)
			offs := [2]uint64{rt.Engine.extent(af.f, first, 1).off, rt.Engine.extent(af.f, first+1, 1).off}
			st := nvme.Store
			kind, buf := device.FaultTransientRead, make([]byte, 2*pageSize)
			for i := range 2 {
				pageMark(buf[i*pageSize:i*pageSize+8], first+uint64(i))
			}
			if write {
				kind = device.FaultTransientWrite
			} else {
				st.WriteAt(offs[0], buf)
				st.WriteAt(offs[1], buf[pageSize:])
				st.Persist(offs[0], pageSize, 0)
				st.Persist(offs[1], pageSize, 0)
				st.SettleAll()
			}
			nvme.InjectFaults("nvme0", &device.FaultPlan{Rules: []device.FaultRule{
				{Kind: kind, Off: offs[1], Len: pageSize, Every: 1},
			}})
			var err error
			got := make([]byte, 2*pageSize)
			if write {
				err = af.Pwrite(p, buf, first*pageSize)
				st.ReadAt(offs[0], got[:pageSize])
				st.ReadAt(offs[1], got[pageSize:])
			} else {
				err = af.Pread(p, got, first*pageSize)
			}
			var de *device.IOError
			if !errors.As(err, &de) || de.Kind != kind || st.InjectedFaults() != 1 {
				t.Fatalf("write=%v across clusters, second failing: %v with %d faults injected, want its error and 1",
					write, err, st.InjectedFaults())
			}
			if !bytes.Equal(got[:pageSize], buf[:pageSize]) || bytes.Equal(got[pageSize:], buf[pageSize:]) {
				t.Errorf("write=%v: the first cluster's chunk moved %v, the failed one %v; want true and false",
					write, bytes.Equal(got[:pageSize], buf[:pageSize]), bytes.Equal(got[pageSize:], buf[pageSize:]))
			}
			if w, owed := st.Owed(); owed {
				t.Errorf("write=%v: %v", write, w)
			}
		})
		e.Run()
	}
}
