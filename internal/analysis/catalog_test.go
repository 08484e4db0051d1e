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

// TestDirectoryHonoursPerNode: an explicit -pernode reaches the
// directory cells, and without it the entry keeps its own default of
// 200 acquisitions per node whatever the flag's default holds — the
// rows TestDirectoryGolden pins.
func TestDirectoryHonoursPerNode(t *testing.T) {
	var exp Experiment
	for _, e := range Experiments {
		if e.Name == "directory" {
			exp = e
		}
	}
	render := func(p Params) string {
		res, err := exp.Run(p)
		if err != nil {
			t.Fatalf("directory %+v: %v", p, err)
		}
		var out string
		for _, tbl := range res.Tables {
			out += tbl.Render()
		}
		return out
	}
	rows, err := DirectoryExperiment([]int{2, 3, 5, 8}, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	def := DirectoryTable(rows).Render()
	if got := render(Params{Seed: 1, PerNode: 2000}); got != def {
		t.Errorf("without -pernode the table is not PerNode 200's:\n%s\nwant:\n%s", got, def)
	}
	if got := render(Params{Seed: 1, PerNode: 200, PerNodeSet: true}); got != def {
		t.Errorf("-pernode 200 differs from the default:\n%s\nwant:\n%s", got, def)
	}
	if got := render(Params{Seed: 1, PerNode: 10, PerNodeSet: true}); got == def {
		t.Errorf("-pernode 10 left the rows at PerNode 200's:\n%s", got)
	}
	if _, err := exp.Run(Params{Seed: 1, PerNode: 0, PerNodeSet: true}); err == nil {
		t.Errorf("-pernode 0 ran; want the directory's PerNode error")
	}
}
