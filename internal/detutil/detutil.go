// Package detutil holds small helpers for keeping the simulation
// deterministic. Go randomizes map iteration order; any loop whose body's
// effects depend on visit order (advancing clocks, emitting spans, issuing
// I/O, building batches) must iterate a sorted key slice instead. The
// maporder analyzer (cmd/aqlint) flags such loops and points here.
package detutil

import (
	"cmp"
	"sort"
)

// SortedKeys returns m's keys in ascending order.
func SortedKeys[M ~map[K]V, K cmp.Ordered, V any](m M) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
