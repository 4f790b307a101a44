package main

import (
	"fmt"

	"aquila"
	"aquila/internal/kvs/kreon"
	"aquila/internal/ycsb"
)

// kreon-ycsb-a-nvme-1t: frozen sizes (Fig 9 regime: dataset 2x cache).
const (
	kreonCacheBytes = 24 << 20
	kreonValueSize  = 1000
	kreonOps        = 400000
)

func setupKreonYCSB(cfg runCfg) *instance {
	cache := shrink(kreonCacheBytes, cfg.scale, 2<<20)
	records := 2 * cache / 1100
	ops := scaleN(kreonOps, cfg.scale, 200)
	// Updates append to the log and every spill bulk-builds a fresh tree, so
	// both regions are sized for the load plus the measured phase.
	logBytes := (records+uint64(ops))*1100 + 8<<20
	idxBytes := records*80*8 + 8<<20
	size := 4096 + logBytes + idxBytes

	sys := aquila.New(cfg.options(aquila.Options{
		Mode: aquila.ModeAquila, Device: aquila.DeviceNVMe, CPUs: 8,
		CacheBytes: cache, DeviceBytes: size + 64<<20, Seed: cfg.seed,
		Params: tunedParams(cache),
	}))
	var db *kreon.DB
	sys.Do(func(p *aquila.Proc) {
		f := sys.NS.Create(p, "kreon.data", size)
		m := wrapMapping(sys.NS.Mmap(p, f, size), cfg.rec)
		m.Advise(p, aquila.AdviceRandom)
		db = kreon.OpenWithMapping(p, kreon.Options{
			LogBytes: logBytes, IndexBytes: idxBytes, L0Entries: int(records)/3 + 1,
		}, m)
		for i := uint64(0); i < records; i++ {
			db.Put(p, ycsb.KeyBytes(i), ycsb.Value(i, kreonValueSize))
		}
		db.Msync(p)
	})
	kv := wrapKV(db, cfg.rec)
	// The op trace is an input: generated here, replayed in the phase.
	gen := ycsb.NewGenerator(ycsb.Config{
		Workload: ycsb.WorkloadA, Records: records, ValueSize: kreonValueSize,
		Distribution: ycsb.Zipfian, Seed: cfg.seed,
	})
	trace := make([]ycsb.Op, ops)
	for i := range trace {
		trace[i] = gen.Next()
	}
	lat := make([]uint64, 0, ops)

	run := func() phase {
		ph := phase{ops: uint64(ops)}
		sys.Do(func(p *aquila.Proc) {
			for _, op := range trace {
				ok := true
				t0 := p.Now()
				switch op.Kind {
				case ycsb.OpRead:
					cfg.rec.begin(p, "op.read")
					ok = guardedGet(p, kv, op.Key)
				case ycsb.OpUpdate:
					cfg.rec.begin(p, "op.update")
					ok = guardedPut(p, kv, op.Key)
					ph.stored += 30 + kreonValueSize
				default:
					panic(fmt.Sprintf("bench: YCSB-A generated %v", op.Kind))
				}
				lat = append(lat, p.Now()-t0)
				cfg.rec.end(p)
				if !ok {
					ph.failed++
				}
			}
		})
		ph.lat = lat
		ph.extra = map[string]float64{
			"kreon.l0_entries":   float64(db.L0Size()),
			"kreon.tree_entries": float64(db.TreeEntries()),
		}
		return ph
	}
	// One Proc issues every operation, so the engine never hands off; the
	// runner checks it through the simulated thread count.
	bypass := func(d layerDelta, ph *phase) error {
		if procs := d.n["_procs"]; procs != 1 {
			return fmt.Errorf("kreon-ycsb-a-nvme-1t must run on one Proc, ran on %d", procs)
		}
		return nil
	}
	return &instance{sys: sys, run: run, bypass: bypass}
}

// guardedGet reads one key and checks the value the store returns.
func guardedGet(p *aquila.Proc, kv ycsb.KV, id uint64) (ok bool) {
	defer absorbSigbus(&ok)
	v, found := kv.Get(p, ycsb.KeyBytes(id))
	return found && ycsb.CheckValue(id, v)
}

// guardedPut updates one key.
func guardedPut(p *aquila.Proc, kv ycsb.KV, id uint64) (ok bool) {
	defer absorbSigbus(&ok)
	kv.Put(p, ycsb.KeyBytes(id), ycsb.Value(id, kreonValueSize))
	return true
}
