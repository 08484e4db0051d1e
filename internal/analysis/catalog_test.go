package analysis

import "testing"

// TestWorkersReachFormerlyFixedPoolExperiments: these seven experiments
// used to hard-code worker count 0 (GOMAXPROCS), so -workers 1 still ran
// them on a goroutine pool. They now take the count from Params, and —
// like every sweep — print the same tables at any count.
func TestWorkersReachFormerlyFixedPoolExperiments(t *testing.T) {
	formerlyFixed := map[string]bool{
		"lowerbound": true, "sequential": true, "trees": true, "arbitration": true,
		"async": true, "stretch": true, "oneshot": true,
	}
	render := func(e Experiment, workers int) string {
		res, err := e.Run(Params{Seed: 3, Workers: workers})
		if err != nil {
			t.Fatalf("%s at workers=%d: %v", e.Name, workers, err)
		}
		var out string
		for _, tbl := range res.Tables {
			out += tbl.Render()
		}
		return out
	}
	for _, e := range Experiments {
		if !formerlyFixed[e.Name] {
			continue
		}
		delete(formerlyFixed, e.Name)
		if seq, par := render(e, 1), render(e, 4); seq != par {
			t.Errorf("%s differs between workers=1 and workers=4:\n%s\n%s", e.Name, seq, par)
		}
	}
	for name := range formerlyFixed {
		t.Errorf("no experiment named %q", name)
	}
}
