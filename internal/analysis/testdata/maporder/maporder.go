// Package maps is the maporder golden: every range over a map is a finding
// unless it iterates sorted keys or carries an //aqlint:sorted directive
// with its reason. The loop body is not judged.
package maps

import "sort"

func advance(k string) {}

// sortedKeys stands in for slices.Sorted(maps.Keys(m)): what is ranged is a
// slice.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	//aqlint:sorted -- collects the keys, sorted below before any use
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sorted(m map[string]int) {
	for _, k := range sortedKeys(m) {
		advance(k)
	}
}

func calls(m map[string]int) {
	for k := range m { // want "map iteration order can leak"
		advance(k)
	}
}

func sends(m map[string]int, ch chan string) {
	for k := range m { // want "map iteration order can leak"
		ch <- k
	}
}

func lastWriterWins(m map[string]int) int {
	last := 0
	for _, v := range m { // want "map iteration order can leak"
		last = v
	}
	return last
}

func orderedAppend(m map[string]int) []string {
	var keys []string
	for k := range m { // want "map iteration order can leak"
		keys = append(keys, k)
	}
	return keys
}

// commutes: counters, += and per-key writes all commute, and the loop is
// flagged all the same until it says so.
func commutes(m map[string]int, out map[string]int) (n, sum int) {
	for k, v := range m { // want "map iteration order can leak"
		n++
		sum += v
		out[k] = v
	}
	//aqlint:sorted -- order-independent count and sum, per-key writes
	for k, v := range m {
		n++
		sum += v
		out[k] = v
	}
	return n, sum
}

func trailing(m map[string]int) {
	for k := range m { //aqlint:sorted -- delete on the ranged map is order-free
		delete(m, k)
	}
}

func noReason(m map[string]int) (n int) {
	//aqlint:sorted // want "without a reason suppresses nothing"
	for range m { // want "map iteration order can leak"
		n++
	}
	return n
}
