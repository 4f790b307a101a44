// Package detutil holds what the simulated worlds share to stay deterministic
// without paying for it on the host clock. Go randomizes map iteration order,
// so any loop whose effects depend on visit order (advancing clocks, emitting
// spans, issuing I/O, building batches) must not range over a map; the
// maporder analyzer (cmd/aqlint) flags such loops. PageIndex is the cache
// index of both worlds — ordered by construction, so nothing that walks it
// needs a sort — Scratch lends their paths the slices they batch in, and
// PageState is the one lifecycle both worlds' cached pages move through.
package detutil
