package engine

import (
	"fmt"
	"reflect"

	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Cell is one independent experiment: a protocol applied to an instance.
type Cell struct {
	Protocol Protocol
	Instance Instance
}

// Outcome is the result slot of one cell.
type Outcome struct {
	Cost Cost
	Err  error
}

// Sweep runs every cell and returns outcomes in cell order. Cells are
// fanned across a worker pool of the given size (0 or negative =
// GOMAXPROCS); each cell is an isolated simulation seeded from its own
// Instance.Seed, so the outcome slice is byte-identical for every worker
// count, including the sequential workers=1 run.
func Sweep(cells []Cell, workers int) []Outcome {
	out := make([]Outcome, len(cells))
	par.ParallelMap(len(cells), workers, func(i int) {
		cost, err := cells[i].Protocol.Run(cells[i].Instance)
		out[i] = Outcome{Cost: cost, Err: err}
	})
	return out
}

// FirstError returns the first cell error in cell order, or nil.
func FirstError(outs []Outcome) error {
	for _, o := range outs {
		if o.Err != nil {
			return o.Err
		}
	}
	return nil
}

// Costs projects the outcome slice to costs; call after FirstError.
func Costs(outs []Outcome) []Cost {
	cs := make([]Cost, len(outs))
	for i, o := range outs {
		cs[i] = o.Cost
	}
	return cs
}

// Grid builds the cross product of instances and protocols in
// deterministic instance-major order: all protocols of instance 0, then
// all of instance 1, and so on.
//
// A recorder shared between cells is rejected with a descriptive panic:
// crossing a recording instance with a protocol column, or reusing one
// recorder across several instances, would have concurrently swept
// cells feed the same accumulating state — a data race under Sweep, and
// conflated distributions even sequentially. Grids that record build
// one Instance per cell (as analysis.closedLoopCells does).
func Grid(instances []Instance, protocols ...Protocol) []Cell {
	// seen is a slice scan, not a map: instance counts are tiny, the
	// scan's order is the deterministic instance order by construction,
	// and an interface-keyed map would be one refactor away from a
	// nondeterministic range (and panics at insert on a non-comparable
	// dynamic type, where == against a distinct comparable value never
	// does).
	var seen []stats.Recorder
	for _, inst := range instances {
		r := inst.Recorder
		if r == nil {
			continue
		}
		if len(protocols) > 1 {
			panic(fmt.Sprintf("engine: Grid would share instance %q's Recorder across %d protocol cells; build per-cell instances instead",
				inst.Label, len(protocols)))
		}
		if !reflect.TypeOf(r).Comparable() {
			continue
		}
		for _, s := range seen {
			if s == r {
				panic(fmt.Sprintf("engine: Grid instances share one Recorder (seen again at %q); give each instance its own",
					inst.Label))
			}
		}
		seen = append(seen, r)
	}
	cells := make([]Cell, 0, len(instances)*len(protocols))
	for _, inst := range instances {
		for _, p := range protocols {
			cells = append(cells, Cell{Protocol: p, Instance: inst})
		}
	}
	return cells
}

// ParallelMapErr invokes fn(i) for every i in [0, n) across a pool of
// workers (0 or negative = GOMAXPROCS), each call writing its result
// into its own index of a pre-sized slice, and returns the first error
// in index order (nil when all succeeded). It re-exports
// par.ParallelMapErr, the one package arrowlint lets spawn goroutines,
// for experiments whose work items are not protocol cells.
func ParallelMapErr(n, workers int, fn func(i int) error) error {
	return par.ParallelMapErr(n, workers, fn)
}

// DeriveSeed decorrelates per-cell seeds from a base seed: cells seeded
// DeriveSeed(base, 0), DeriveSeed(base, 1), ... draw unrelated random
// streams even though the cell indices are adjacent. It is the same
// splitmix64 mixer the simulator uses for its internal streams.
func DeriveSeed(base int64, cell int) int64 { return sim.DeriveSeed(base, cell) }
