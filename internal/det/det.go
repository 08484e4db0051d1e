// Package det holds the repo's sanctioned deterministic-iteration
// helpers. Go randomizes map range order on purpose; in this codebase
// anything that feeds results, messages, or scheduling must be a pure
// function of the seed, so map iteration in deterministic packages is a
// lint failure (arrowlint's determinism analyzer). When a map is the right
// container, iterate it through SortedKeys: the order is then fixed by
// the keys themselves, independent of insertion history and runtime
// hashing — deterministic by construction, not by discipline.
package det

import (
	"cmp"
	"sort"
)

// SortedKeys returns m's keys in ascending order. The one map range in
// this module lives here, where the sort directly below it makes the
// order well-defined.
func SortedKeys[M ~map[K]V, K cmp.Ordered, V any](m M) []K {
	keys := make([]K, 0, len(m))
	//arrow:allow determinism the range feeds the sort below; this is the sanctioned iteration point
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
