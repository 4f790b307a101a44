// Package persist is the persistpair golden: every device write staged with
// Store.WriteAt must reach its Persist durability handshake on every CFG
// path to a normal return. Findings anchor at the unpaired WriteAt (or at
// the call through which pending writes escape).
package persist

import "errors"

var errFake = errors.New("fake")

// Store mirrors the simulated device store's durability surface.
type Store struct{}

func (s *Store) WriteAt(off uint64, b []byte)         {}
func (s *Store) Persist(off uint64, n int, at uint64) {}
func (s *Store) CheckWrite(at, off uint64, n int) (uint64, error) {
	return 0, nil
}

func paired(st *Store, b []byte) {
	st.WriteAt(0, b)
	st.Persist(0, len(b), 1)
}

func earlyReturnLeak(st *Store, b []byte) error {
	st.WriteAt(0, b) // want "unpaired"
	if bad() {
		return errFake
	}
	st.Persist(0, len(b), 1)
	return nil
}

// correlatedGuards is the I/O-engine shape: the write and its handshake sit
// under separate ifs testing the same fault result. The guard correlation
// must pair them without a false positive.
func correlatedGuards(st *Store, b []byte) {
	_, ferr := st.CheckWrite(1, 0, len(b))
	if ferr == nil {
		st.WriteAt(0, b)
	}
	step()
	if ferr == nil {
		st.Persist(0, len(b), 1)
	}
}

// elseBranchGuard is the direct-mapping shape: the write in the else of a
// negated test (`ferr != nil`), the handshake under the positive test.
func elseBranchGuard(st *Store, b []byte) {
	_, ferr := st.CheckWrite(1, 0, len(b))
	if ferr != nil {
		record(ferr)
	} else {
		st.WriteAt(0, b)
	}
	if ferr == nil {
		st.Persist(0, len(b), 1)
	}
}

// branchPaired persists on both arms (the block-layer PMem/NVMe split).
func branchPaired(st *Store, b []byte, pmem bool) {
	st.WriteAt(0, b)
	if pmem {
		st.Persist(0, len(b), 1)
	} else {
		st.Persist(0, len(b), 2)
	}
}

func branchLeak(st *Store, b []byte, pmem bool) {
	st.WriteAt(0, b) // want "unpaired"
	if pmem {
		st.Persist(0, len(b), 1)
	}
}

// stage mirrors core's flushFrame: the pending write escapes to the caller,
// which inherits the persist obligation. stage itself is not a finding — it
// has intra-package callers that carry the fact.
func stage(st *Store, b []byte) {
	st.WriteAt(0, b)
}

func stageCallerPersists(st *Store, b []byte) {
	stage(st, b)
	st.Persist(0, len(b), 1)
}

func stageCallerLeaks(st *Store, b []byte) {
	stage(st, b) // want "call to stage stages a device WriteAt"
}

// persistAll persists on every path, so a call to it discharges pending
// writes (the call-graph mustPersist summary).
func persistAll(st *Store, n int, fast bool) {
	if fast {
		st.Persist(0, n, 1)
	} else {
		st.Persist(0, n, 2)
	}
}

func viaMustPersist(st *Store, b []byte) {
	st.WriteAt(0, b)
	persistAll(st, len(b), true)
}

// timedIO is host's blockIO shape: reads and writes share one timed path and
// a bool parameter switches the handshake on. Only a call passing the
// constant true discharges a pending write.
func timedIO(st *Store, n int, write bool) {
	step()
	if write {
		st.Persist(0, n, 1)
	}
	step()
}

func viaGuardedPersist(st *Store, b []byte) {
	st.WriteAt(0, b)
	timedIO(st, len(b), true)
}

func guardedPersistReadSide(st *Store, b []byte) {
	st.WriteAt(0, b) // want "unpaired"
	timedIO(st, len(b), false)
}

func guardedPersistUnknown(st *Store, b []byte, write bool) {
	st.WriteAt(0, b) // want "unpaired"
	timedIO(st, len(b), write)
}

// twoStores: a Persist on a different receiver does not pair a write on
// this one.
func twoStores(a, b *Store, buf []byte) {
	a.WriteAt(0, buf) // want "unpaired"
	b.Persist(0, len(buf), 1)
}

// loopPaired: in-loop pairing must survive the loop-exit edge (loop
// conditions are not correlation guards — the induction variable mutates).
func loopPaired(st *Store, b []byte, n int) {
	for i := 0; i < n; i++ {
		st.WriteAt(uint64(i), b)
		st.Persist(uint64(i), len(b), 1)
	}
}

func loopLeak(st *Store, b []byte, n int) error {
	for i := 0; i < n; i++ {
		st.WriteAt(uint64(i), b) // want "unpaired"
		if bad() {
			return errFake
		}
		st.Persist(uint64(i), len(b), 1)
	}
	return nil
}

// litLeak: function literals are leaf units; nothing can carry their
// obligation.
func litLeak(st *Store, b []byte) {
	go func() {
		st.WriteAt(0, b) // want "unpaired"
	}()
}

func bad() bool        { return false }
func step()            {}
func record(err error) {}
