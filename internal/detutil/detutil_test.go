package detutil

import (
	"reflect"
	"testing"
)

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 2, "a": 1, "c": 3}
	got := SortedKeys(m)
	want := []string{"a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SortedKeys = %v, want %v", got, want)
	}
	if keys := SortedKeys(map[uint64]bool{}); len(keys) != 0 {
		t.Errorf("SortedKeys(empty) = %v, want empty", keys)
	}
}
