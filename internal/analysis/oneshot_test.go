package analysis

import (
	"strings"
	"testing"
)

func TestOneShotExperimentBounds(t *testing.T) {
	rows, err := OneShotExperiment(32, []int{2, 4, 8}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Exact {
			t.Errorf("|R|=%d: expected exact optimum", r.R)
			continue
		}
		if r.Ratio < 1.0-1e-9 {
			t.Errorf("|R|=%d: ratio %.3f below 1", r.R, r.Ratio)
		}
		// The PODC'01 guarantee shape: within s·log2|R| with comfortable
		// slack (the constant in the theorem exceeds 1).
		if r.Ratio > 2*r.Bound {
			t.Errorf("|R|=%d: ratio %.3f far above s·log|R| = %.3f", r.R, r.Ratio, r.Bound)
		}
	}
	if out := OneShotTable(rows).Render(); !strings.Contains(out, "One-shot") {
		t.Error("table malformed")
	}
}

func TestDirectoryExperimentArrowWins(t *testing.T) {
	rows, err := DirectoryExperiment([]int{3, 5}, 60, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// The Herlihy–Warres observation, reproduced: the arrow directory
		// outperforms the home-based directory, increasingly so with size.
		if r.ArrowMakespan >= r.HomeMakespan {
			t.Errorf("n=%d: arrow makespan %d not below home %d",
				r.N, r.ArrowMakespan, r.HomeMakespan)
		}
		if r.ArrowObjHops >= r.HomeObjHops {
			t.Errorf("n=%d: arrow object travel %.2f not below home %.2f",
				r.N, r.ArrowObjHops, r.HomeObjHops)
		}
	}
	// The advantage grows with system size (locality pays more on
	// larger grids).
	small := float64(rows[0].HomeMakespan) / float64(rows[0].ArrowMakespan)
	large := float64(rows[1].HomeMakespan) / float64(rows[1].ArrowMakespan)
	if large < small {
		t.Errorf("directory advantage shrank with size: %.2f -> %.2f", small, large)
	}
	if out := DirectoryTable(rows).Render(); !strings.Contains(out, "directories") {
		t.Error("table malformed")
	}
}

func TestCommTreeExperimentDemandAwareWins(t *testing.T) {
	rows, err := CommTreeExperiment(5, 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	var bfs, comm CommTreeRow
	for _, r := range rows {
		switch r.Tree {
		case "bfs-center":
			bfs = r
		case "comm-tree":
			comm = r
		}
	}
	if comm.Expected > bfs.Expected+1e-9 {
		t.Errorf("comm-tree expected cost %.3f above BFS %.3f", comm.Expected, bfs.Expected)
	}
	if comm.Measured > bfs.Measured*1.2 {
		t.Errorf("comm-tree measured %.3f not competitive with BFS %.3f", comm.Measured, bfs.Measured)
	}
}
