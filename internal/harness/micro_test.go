package harness

import (
	"reflect"
	"testing"

	"aquila"
	"aquila/internal/core"
)

// drain runs thread t's stream over a mapping of mPages pages to its end.
func drain(s pageStream, t int, mPages uint64) (pages []uint64, stores []bool) {
	next := s(t, mPages)
	for pg, store, ok := next(); ok; pg, store, ok = next() {
		pages = append(pages, pg)
		stores = append(stores, store)
	}
	return
}

func TestColdStreamSharedPartitionsTheFile(t *testing.T) {
	const threads, mPages = 5, 103 // not a multiple: the partition is uneven
	seen := make(map[uint64]int)
	for th := 0; th < threads; th++ {
		pages, stores := drain(coldStream(46, threads, true, 0), th, mPages)
		own := make(map[uint64]bool)
		for i, pg := range pages {
			if own[pg] {
				t.Errorf("thread %d touches page %d twice", th, pg)
			}
			if pg%threads != uint64(th) || pg >= mPages {
				t.Errorf("thread %d touches page %d outside its stride", th, pg)
			}
			if stores[i] {
				t.Errorf("thread %d stores to page %d; cold streams only load", th, pg)
			}
			own[pg] = true
			seen[pg]++
		}
	}
	for pg := uint64(0); pg < mPages; pg++ {
		if seen[pg] != 1 {
			t.Errorf("page %d touched %d times across the threads, want 1", pg, seen[pg])
		}
	}
}

func TestColdStreamPrivateCoversTheMappingAndLimitTruncatesTheShuffle(t *testing.T) {
	const mPages = 64
	full, _ := drain(coldStream(46, 4, false, 0), 2, mPages)
	seen := make(map[uint64]bool)
	for _, pg := range full {
		seen[pg] = true
	}
	if len(full) != mPages || len(seen) != mPages {
		t.Fatalf("private stream yields %d pages (%d distinct), want all %d", len(full), len(seen), mPages)
	}
	inOrder := true
	for i, pg := range full {
		inOrder = inOrder && pg == uint64(i)
	}
	if inOrder {
		t.Error("private stream is not shuffled")
	}
	// The limit applies after the shuffle: the kept pages are a prefix of the
	// unlimited order, not the first pages of the file.
	limited, _ := drain(coldStream(46, 4, false, 10), 2, mPages)
	if !reflect.DeepEqual(limited, full[:10]) {
		t.Errorf("limit 10 yields %v, want the shuffled prefix %v", limited, full[:10])
	}
	if other, _ := drain(coldStream(46, 4, false, 0), 3, mPages); reflect.DeepEqual(other, full) {
		t.Error("threads 2 and 3 shuffle identically")
	}
}

func TestDenseStreamTilesTheMapping(t *testing.T) {
	const threads, mPages = 4, 1030 // remainder 2 goes to the last thread
	var all []uint64
	for th := 0; th < threads; th++ {
		pages, _ := drain(denseStream(threads), th, mPages)
		want := mPages / threads
		if th == threads-1 {
			want += mPages % threads
		}
		if len(pages) != want {
			t.Errorf("thread %d gets %d pages, want %d", th, len(pages), want)
		}
		all = append(all, pages...)
	}
	for i, pg := range all {
		if pg != uint64(i) {
			t.Fatalf("chunks concatenate to page %d at position %d: not a tiling in order", pg, i)
		}
	}
	if len(all) != mPages {
		t.Errorf("chunks cover %d pages, want %d", len(all), mPages)
	}
}

func TestLCGStreamMixAndLength(t *testing.T) {
	const ops, mPages = 100, 512
	pages, stores := drain(lcgStream(99, ops, true), 1, mPages)
	if len(pages) != ops {
		t.Fatalf("stream yields %d accesses, want %d", len(pages), ops)
	}
	for i := range pages {
		if pages[i] >= mPages {
			t.Errorf("access %d at page %d beyond the mapping", i, pages[i])
		}
		if stores[i] != (i%3 == 0) {
			t.Errorf("access %d: store=%v, want stores exactly where i%%3 == 0", i, stores[i])
		}
	}
	loads, stores := drain(lcgStream(99, ops, false), 1, mPages)
	if !reflect.DeepEqual(loads, pages) {
		t.Error("mixed and load-only streams visit different pages")
	}
	for i, st := range stores {
		if st {
			t.Errorf("load-only stream stores at access %d", i)
		}
	}
	if n, _ := drain(randStream(46, 7), 0, mPages); len(n) != 7 {
		t.Errorf("randStream(…, 7) yields %d accesses", len(n))
	}
}

func TestBootFillsAquilaParamsOnly(t *testing.T) {
	defer TakeSimCycles() // close the worlds
	const cache = 4 * mib
	want := *core.ParamsForCache(cache)
	if want.EvictBatch == core.DefaultParams().EvictBatch {
		t.Fatal("a 4 MB cache does not scale EvictBatch: the test cannot tell the two apart")
	}
	opts := aquila.Options{Mode: aquila.ModeAquila, CacheBytes: cache, DeviceBytes: 64 * mib, CPUs: 2}
	if got := *boot(opts).Opts.Params; !reflect.DeepEqual(got, want) {
		t.Errorf("Aquila world without Params runs with %+v, want ParamsForCache(%d)", got, cache)
	}
	if opts.Params != nil {
		t.Error("boot wrote Params through to the caller's Options")
	}
	own := core.DefaultParams()
	own.EvictBatch = 77
	opts.Params = &own
	if got := boot(opts).Opts.Params; got != &own {
		t.Errorf("explicit Params replaced: %+v", got)
	}
	for _, mode := range []aquila.Mode{aquila.ModeLinuxMmap, aquila.ModeLinuxDirect} {
		opts := aquila.Options{Mode: mode, CacheBytes: cache, DeviceBytes: 64 * mib, CPUs: 2}
		if got := boot(opts).Opts.Params; got != nil {
			t.Errorf("mode %v got Params %+v, want none", mode, got)
		}
	}
}
