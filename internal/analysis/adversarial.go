package analysis

import (
	"math/rand"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/opt"
	"repro/internal/queuing"
	"repro/internal/sim"
	"repro/internal/tree"
)

// AdversarialResult reports the outcome of a randomized search for
// high-competitive-ratio instances on a path tree — an empirical
// companion to the Theorem 4.1 lower bound. The search hill-climbs over
// small request sets (exact optimum computable) by mutating request
// positions and times.
type AdversarialResult struct {
	D        int
	Requests int
	// BestRatio is the largest cost(arrow)/cost(opt-exact) found.
	BestRatio float64
	// BestSet is the witnessing request set.
	BestSet queuing.Set
	// Evaluated counts candidate instances scored.
	Evaluated int
}

// AdversarialSearch hill-climbs for nReq-request instances on the path
// 0..d maximizing arrow's exact competitive ratio. nReq must be at most
// opt.MaxExactRequests. Deterministic for a fixed seed.
func AdversarialSearch(d, nReq, iterations int, seed int64) (AdversarialResult, error) {
	rng := rand.New(rand.NewSource(seed))
	t := tree.PathTree(d + 1)
	g := graph.Path(d + 1)

	score := func(set queuing.Set) (float64, error) {
		cost, err := engine.Arrow{}.Run(engine.Instance{
			Graph: g, Tree: t, Root: 0, Workload: engine.NewStatic(set).MustBuild(),
		})
		if err != nil {
			return 0, err
		}
		den := opt.Compute(g, 0, set).Best()
		if den == 0 {
			return 0, nil
		}
		return float64(cost.TotalLatency) / float64(den), nil
	}
	randomSet := func() queuing.Set {
		reqs := make([]queuing.Request, nReq)
		for i := range reqs {
			reqs[i] = queuing.Request{
				Node: graph.NodeID(rng.Intn(d + 1)),
				Time: sim.Time(rng.Intn(2*d + 1)),
			}
		}
		return queuing.NewSet(reqs)
	}
	mutate := func(set queuing.Set) queuing.Set {
		reqs := append([]queuing.Request(nil), set...)
		i := rng.Intn(len(reqs))
		switch rng.Intn(3) {
		case 0:
			reqs[i].Node = graph.NodeID(rng.Intn(d + 1))
		case 1:
			reqs[i].Time = sim.Time(rng.Intn(2*d + 1))
		default:
			delta := rng.Intn(d/4+2) - d/8
			p := int(reqs[i].Node) + delta
			if p < 0 {
				p = 0
			}
			if p > d {
				p = d
			}
			reqs[i].Node = graph.NodeID(p)
		}
		return queuing.NewSet(reqs)
	}

	result := AdversarialResult{D: d, Requests: nReq}
	cur := randomSet()
	curScore, err := score(cur)
	if err != nil {
		return result, err
	}
	best, bestScore := cur, curScore
	sinceImprove := 0
	for iter := 0; iter < iterations; iter++ {
		cand := mutate(cur)
		cs, err := score(cand)
		if err != nil {
			return result, err
		}
		result.Evaluated++
		if cs >= curScore {
			cur, curScore = cand, cs
		}
		if cs > bestScore {
			best, bestScore = cand, cs
			sinceImprove = 0
		} else {
			sinceImprove++
		}
		if sinceImprove > iterations/5 {
			// Restart from a fresh random instance to escape plateaus.
			cur = randomSet()
			curScore, err = score(cur)
			if err != nil {
				return result, err
			}
			sinceImprove = 0
		}
	}
	result.BestRatio = bestScore
	result.BestSet = best
	return result, nil
}

// AdversarialSweep runs an independent AdversarialSearch per diameter
// across a worker pool (0 = GOMAXPROCS). Each diameter's search is seeded
// from its own derived seed, so results are deterministic and identical
// for every worker count.
func AdversarialSweep(ds []int, nReq, iterations int, seed int64, workers int) ([]AdversarialResult, error) {
	results := make([]AdversarialResult, len(ds))
	err := engine.ParallelMapErr(len(ds), workers, func(i int) error {
		var err error
		results[i], err = AdversarialSearch(ds[i], nReq, iterations, engine.DeriveSeed(seed, i))
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// AdversarialTable formats search results across diameters.
func AdversarialTable(results []AdversarialResult) *Table {
	t := &Table{
		Title:   "Adversarial search — worst measured ratio on path trees (exact opt)",
		Headers: []string{"D", "|R|", "instances tried", "worst ratio found"},
	}
	for _, r := range results {
		t.AddRow(r.D, r.Requests, r.Evaluated, r.BestRatio)
	}
	return t
}
