package host

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"aquila/internal/sim/device"
	"aquila/internal/sim/engine"
)

func TestIOURingRoundTrip(t *testing.T) {
	e, os := newNVMeOS(16 * mib)
	run1(e, func(p *engine.Proc) {
		f := os.FS.Create(p, "f", 4*mib)
		ring := NewIOURing(os, f, 64)
		data := []byte("async payload")
		buf := make([]byte, len(data))
		copy(buf, data)
		ring.Prep(Sqe{Write: true, Off: 8192, Buf: buf, UserData: 1})
		ring.Enter(p)
		got := ring.WaitCqes(p, 1)
		if len(got) != 1 || got[0].UserData != 1 {
			t.Fatalf("write cqe = %+v", got)
		}
		rbuf := make([]byte, len(data))
		ring.Prep(Sqe{Off: 8192, Buf: rbuf, UserData: 2})
		ring.Enter(p)
		got = ring.WaitCqes(p, 1)
		if len(got) != 1 || got[0].UserData != 2 {
			t.Fatalf("read cqe = %+v", got)
		}
		if !bytes.Equal(rbuf, data) {
			t.Errorf("read back %q", rbuf)
		}
	})
}

func TestIOURingBatchingAmortizesSyscalls(t *testing.T) {
	e, os := newNVMeOS(16 * mib)
	run1(e, func(p *engine.Proc) {
		f := os.FS.Create(p, "f", 16*mib)
		ring := NewIOURing(os, f, 256)
		const n = 64
		bufs := make([][]byte, n)
		for i := 0; i < n; i++ {
			bufs[i] = make([]byte, 4096)
			ring.Prep(Sqe{Off: uint64(i) * 4096, Buf: bufs[i], UserData: uint64(i)})
		}
		ring.Enter(p)
		done := ring.WaitCqes(p, n)
		if len(done) != n {
			t.Fatalf("reaped %d, want %d", len(done), n)
		}
		if ring.SyscallOps != 1 {
			t.Errorf("syscalls = %d, want 1 for the whole batch", ring.SyscallOps)
		}
		if ring.Inflight() != 0 {
			t.Errorf("inflight = %d", ring.Inflight())
		}
	})
}

func TestIOURingThroughputBeatsSyncButTailSuffers(t *testing.T) {
	// The §7.1 tradeoff: async batching raises throughput but the last
	// completion of a batch waits behind the whole queue.
	const n = 128
	// Synchronous: n direct preads back to back.
	eSync, osSync := newNVMeOS(16 * mib)
	var syncElapsed uint64
	run1(eSync, func(p *engine.Proc) {
		f := osSync.OpenFile(osSync.FS.Create(p, "f", 16*mib), true)
		start := p.Now()
		buf := make([]byte, 4096)
		for i := 0; i < n; i++ {
			f.Pread(p, buf, uint64(i)*4096)
		}
		syncElapsed = p.Now() - start
	})
	// io_uring: one batch of n.
	eAsync, osAsync := newNVMeOS(16 * mib)
	var asyncElapsed, lastGap uint64
	run1(eAsync, func(p *engine.Proc) {
		f := osAsync.FS.Create(p, "f", 16*mib)
		ring := NewIOURing(osAsync, f, 2*n)
		start := p.Now()
		for i := 0; i < n; i++ {
			ring.Prep(Sqe{Off: uint64(i) * 4096, Buf: make([]byte, 4096), UserData: uint64(i)})
		}
		ring.Enter(p)
		cqes := ring.WaitCqes(p, n)
		asyncElapsed = p.Now() - start
		first := cqes[0].DoneAt
		last := cqes[len(cqes)-1].DoneAt
		lastGap = last - first
	})
	if asyncElapsed >= syncElapsed {
		t.Errorf("io_uring (%d) not faster than sync (%d) for a batch", asyncElapsed, syncElapsed)
	}
	// Tail: the last op completed far later than the first (queueing).
	if lastGap < device.DefaultNVMeConfig().ServiceInterval*(n/2) {
		t.Errorf("tail gap %d too small — batching should spread completions", lastGap)
	}
}

func TestIOURingInjectedErrors(t *testing.T) {
	// Device faults surface on the completion side (Cqe.Err, the simulated
	// negative cqe->res): the op is still charged device timing but moves no
	// data.
	e := engine.New(engine.Config{NumCPUs: 8, Seed: 1})
	nv := device.NewNVMe(256*mib, device.DefaultNVMeConfig())
	os := NewOS(e, NewNVMeDisk("nvme0", nv), 16*mib)
	run1(e, func(p *engine.Proc) {
		f := os.FS.Create(p, "f", 4*mib)
		nv.InjectFaults("nvme0", &device.FaultPlan{Rules: []device.FaultRule{
			{Kind: device.FaultTransientWrite, After: 1, Limit: 1},
			{Kind: device.FaultPermanentRead, Off: f.devOff(0), Len: 4096, After: 1},
			{Kind: device.FaultLatencySpike, Off: f.devOff(16384), Len: 4096,
				After: 1, Delay: 99999},
		}})
		ring := NewIOURing(os, f, 64)
		do := func(sqe Sqe) Cqe {
			ring.Prep(sqe)
			ring.Enter(p)
			return ring.WaitCqes(p, 1)[0]
		}
		data := bytes.Repeat([]byte{0xAB}, 4096)
		// First write fails transiently; nothing reaches the media.
		cqe := do(Sqe{Write: true, Off: 8192, Buf: data, UserData: 1})
		var de *device.IOError
		if !errors.As(cqe.Err, &de) || !de.Transient() {
			t.Fatalf("first write cqe.Err = %v, want transient *IOError", cqe.Err)
		}
		rbuf := make([]byte, 4096)
		if cqe := do(Sqe{Off: 8192, Buf: rbuf, UserData: 2}); cqe.Err != nil {
			t.Fatalf("read after failed write: %v", cqe.Err)
		}
		if !bytes.Equal(rbuf, make([]byte, 4096)) {
			t.Error("failed write leaked data to the device")
		}
		// The resubmitted write succeeds (the transient rule is spent).
		if cqe := do(Sqe{Write: true, Off: 8192, Buf: data, UserData: 3}); cqe.Err != nil {
			t.Fatalf("retried write cqe.Err = %v", cqe.Err)
		}
		if cqe := do(Sqe{Off: 8192, Buf: rbuf, UserData: 4}); cqe.Err != nil || !bytes.Equal(rbuf, data) {
			t.Fatalf("read back after retry: err=%v data=%x", cqe.Err, rbuf[:8])
		}
		// Reads of the permanently bad LBA keep failing.
		for i := 0; i < 3; i++ {
			cqe := do(Sqe{Off: 0, Buf: rbuf, UserData: uint64(10 + i)})
			if !errors.As(cqe.Err, &de) || de.Transient() {
				t.Fatalf("bad-LBA read %d: cqe.Err = %v, want permanent *IOError", i, cqe.Err)
			}
		}
		// A latency spike delays the completion without failing it.
		t0 := p.Now()
		cqe = do(Sqe{Off: 16384, Buf: rbuf, UserData: 20})
		if cqe.Err != nil {
			t.Fatalf("spiked read failed: %v", cqe.Err)
		}
		if cqe.DoneAt < t0+99999 {
			t.Errorf("spiked read done at %d, want >= %d", cqe.DoneAt, t0+99999)
		}
	})
}

// TestIOURingCrashDropsInflightWhole pins the per-SQE durability point: each
// submitted write becomes durable — whole — at its own completion time, so a
// crash landing between two completions of one batch keeps exactly the
// finished entries and discards the rest. No entry is ever half-applied: every
// page reads back as either its full pre-batch or full post-batch content.
func TestIOURingCrashDropsInflightWhole(t *testing.T) {
	e, os := newNVMeOS(16 * mib)
	run1(e, func(p *engine.Proc) {
		const n = 16
		f := os.FS.Create(p, "f", 1*mib)
		st := os.FS.disk.Content
		ring := NewIOURing(os, f, 2*n)
		pat := func(i int, phase byte) []byte {
			b := make([]byte, 4096)
			for j := range b {
				b[j] = byte(i)*13 ^ phase ^ byte(j)
			}
			return b
		}
		// Phase A: baseline content, fully durable.
		for i := 0; i < n; i++ {
			ring.Prep(Sqe{Write: true, Off: uint64(i) * 4096, Buf: pat(i, 0xA0), UserData: uint64(i)})
		}
		ring.Enter(p)
		ring.WaitCqes(p, n)
		st.SettleAll()
		// Phase B: one batch overwriting every page; crash mid-batch, between
		// the n/2-th and n/2+1-th completions. (The cqes are reaped only to
		// learn the completion schedule — durability was fixed at Enter time,
		// reaped or not.)
		for i := 0; i < n; i++ {
			ring.Prep(Sqe{Write: true, Off: uint64(i) * 4096, Buf: pat(i, 0xB1), UserData: uint64(i)})
		}
		ring.Enter(p)
		cqes := ring.WaitCqes(p, n)
		if len(cqes) != n {
			t.Fatalf("reaped %d cqes, want %d", len(cqes), n)
		}
		doneAt := make(map[uint64]uint64, n)
		for _, c := range cqes {
			doneAt[c.UserData] = c.DoneAt
		}
		crashCycle := (cqes[n/2-1].DoneAt + cqes[n/2].DoneAt) / 2
		res := st.Crash(crashCycle, rand.New(rand.NewSource(5)), 0)
		wantDropped := 0
		buf := make([]byte, 4096)
		for i := 0; i < n; i++ {
			completed := doneAt[uint64(i)] <= crashCycle
			if !completed {
				wantDropped++
			}
			st.ReadAt(f.devOff(uint64(i)*4096), buf)
			switch {
			case bytes.Equal(buf, pat(i, 0xB1)):
				if !completed {
					t.Errorf("page %d: in-flight write survived the crash", i)
				}
			case bytes.Equal(buf, pat(i, 0xA0)):
				if completed {
					t.Errorf("page %d: completed write lost at the crash", i)
				}
			default:
				t.Errorf("page %d: half-applied content after crash", i)
			}
		}
		if wantDropped == 0 || wantDropped == n {
			t.Fatalf("crash cycle split nothing (dropped %d of %d)", wantDropped, n)
		}
		if res.DroppedBlocks != wantDropped {
			t.Errorf("DroppedBlocks = %d, want %d", res.DroppedBlocks, wantDropped)
		}
	})
}

// TestDurableIOURingWritesOnPMem: on pmem an SQE's completion also carries the
// kernel worker's copy, and every write still gets its durability point, so
// the host's audit finds no block owed.
func TestDurableIOURingWritesOnPMem(t *testing.T) {
	e, os := newPMemOS(16 * mib)
	run1(e, func(p *engine.Proc) {
		f := os.FS.Create(p, "f", 1*mib)
		ring := NewIOURing(os, f, 8)
		for i := 0; i < 4; i++ {
			ring.Prep(Sqe{Write: true, Off: uint64(i) * 4096, Buf: bytes.Repeat([]byte{byte(i + 1)}, 4096), UserData: uint64(i)})
		}
		ring.Enter(p)
		if cqes := ring.WaitCqes(p, 4); len(cqes) != 4 {
			t.Fatalf("reaped %d cqes, want 4", len(cqes))
		}
	})
	if err := os.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestIOURingDepthLimit(t *testing.T) {
	e, os := newNVMeOS(16 * mib)
	run1(e, func(p *engine.Proc) {
		f := os.FS.Create(p, "f", 1*mib)
		ring := NewIOURing(os, f, 2)
		ring.Prep(Sqe{Off: 0, Buf: make([]byte, 512)})
		ring.Prep(Sqe{Off: 4096, Buf: make([]byte, 512)})
		defer func() {
			if recover() == nil {
				t.Error("expected panic past ring depth")
			}
		}()
		ring.Prep(Sqe{Off: 8192, Buf: make([]byte, 512)})
	})
}
