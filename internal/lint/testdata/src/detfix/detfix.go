// Package detfix exercises the determinism analyzer: the package opts
// into the deterministic set with the file directive below, so
// wall-clock reads, the global rand generator, map iteration, and
// goroutine spawns are findings, while seeded streams and sorted
// iteration are not.
//
//arrow:deterministic
package detfix

import (
	"math/rand"
	"sort"
	"time"
)

func Wall() time.Time {
	return time.Now() // want `time\.Now in deterministic package detfix`
}

func Elapsed(start time.Time) time.Duration {
	return time.Since(start) // want `time\.Since in deterministic package detfix`
}

func Global() int {
	return rand.Intn(6) // want `global rand\.Intn in deterministic package detfix`
}

// Seeded draws from a constructed stream: the sanctioned source.
func Seeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(6)
}

func Iterate(m map[string]int) int {
	sum := 0
	for _, v := range m { // want `map iteration order is random`
		sum += v
	}
	return sum
}

// IterateSorted walks the keys in sorted order: no finding.
func IterateSorted(m map[string]int) int {
	keys := make([]string, 0, len(m))
	//arrow:allow determinism fixture: key collection itself needs one raw pass
	for k := range m { // want:allowed `map iteration order is random`
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sum := 0
	for _, k := range keys {
		sum += m[k]
	}
	return sum
}

func Spawn(done chan struct{}) {
	go close(done) // want `goroutine spawn in deterministic package detfix`
}

// WallAllowed proves decl-scoped suppression: the allow directive in
// this doc comment covers the whole function.
//
//arrow:allow determinism fixture: report-only timestamp, never feeds results
func WallAllowed() time.Time {
	return time.Now() // want:allowed `time\.Now in deterministic package detfix`
}

// IterateGeneric ranges over a type parameter whose type set holds only
// maps: still a map iteration.
func IterateGeneric[M ~map[K]V, K comparable, V any](m M) int {
	n := 0
	for range m { // want `map iteration order is random`
		n++
	}
	return n
}

// mapOf is a named constraint holding only maps.
type mapOf[K comparable, V any] interface {
	~map[K]V
}

func IterateConstrained[M mapOf[K, V], K comparable, V any](m M) int {
	n := 0
	for range m { // want `map iteration order is random`
		n++
	}
	return n
}

// IterateSlice ranges over a type parameter of slices: no finding.
func IterateSlice[S ~[]E, E any](s S) int {
	n := 0
	for range s {
		n++
	}
	return n
}
