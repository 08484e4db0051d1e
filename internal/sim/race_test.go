//go:build race

package sim

// raceEnabled reports a -race build: the instrumented compiler does not
// fuse slices.Grow's append of a made slice into one allocation, so
// allocation byte counts differ from a normal build.
const raceEnabled = true
