//go:build race

package shard_test

// raceEnabled reports a -race build, whose instrumented allocator counts
// bytes differently from a normal build.
const raceEnabled = true
