package analysis

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/stabilize"
	"repro/internal/tree"
)

// StabilizeRow summarizes self-stabilization repair over a batch of
// random corruptions of one tree size, for both implementations: the
// round-based oracle (rounds, de-cycles, merges) and the message-driven
// protocol (episodes, messages, simulated convergence time), which runs
// on the same corrupted instances so the two are directly comparable.
type StabilizeRow struct {
	N            int     `json:"n"`
	Trials       int     `json:"trials"`
	CorruptFrac  float64 `json:"corrupt_frac"`
	AvgRounds    float64 `json:"avg_rounds"`
	MaxRounds    int     `json:"max_rounds"`
	AvgDecycles  float64 `json:"avg_decycles"`
	AvgMerges    float64 `json:"avg_merges"`
	AllConverged bool    `json:"all_converged"`
	// Message-driven repair columns: average repair messages (= tree-edge
	// hops), simulated convergence time, and episodes per trial; and
	// whether every trial agreed with the oracle's surviving sink.
	AvgMessages  float64 `json:"avg_messages"`
	AvgSimTime   float64 `json:"avg_sim_time"`
	AvgEpisodes  float64 `json:"avg_episodes"`
	SinksAgree   bool    `json:"sinks_agree"`
	SimConverged bool    `json:"sim_converged"`
	MaxMessages  int64   `json:"max_messages"`
	MaxSimTime   int64   `json:"max_sim_time"`
}

// StabilizeExperiment corrupts a fraction of pointers uniformly at
// random and measures repair cost across trials — the round-based
// oracle's rounds/de-cycles/merges and the message-driven protocol's
// messages/time/episodes on the same instances (the E14 experiment). It
// returns the arrowbench/stabilize document; every field is
// deterministic for a fixed config.
func StabilizeExperiment(cfg StabilizeConfig) (Document[StabilizeConfig, StabilizeRow], error) {
	doc := Document[StabilizeConfig, StabilizeRow]{
		Schema: StabilizeSchema, Config: cfg, Rows: make([]StabilizeRow, 0, len(cfg.Sizes)),
	}
	for _, n := range cfg.Sizes {
		t := tree.BalancedBinary(n)
		rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
		row := StabilizeRow{
			N: n, Trials: cfg.Trials, CorruptFrac: cfg.CorruptFrac,
			AllConverged: true, SinksAgree: true, SimConverged: true,
		}
		var sumRounds, sumDecycles, sumMerges int64
		var sumMsgs, sumTime, sumEpisodes int64
		for trial := 0; trial < cfg.Trials; trial++ {
			links := make([]graph.NodeID, n)
			for v := range links {
				node := graph.NodeID(v)
				if node == 0 {
					links[v] = 0
				} else {
					links[v] = t.NextHop(node, 0)
				}
			}
			for k := 0; k < int(float64(n)*cfg.CorruptFrac); k++ {
				links[rng.Intn(n)] = graph.NodeID(rng.Intn(n))
			}
			simLinks := append([]graph.NodeID(nil), links...)
			res, err := stabilize.Repair(t, links)
			if err != nil {
				return doc, err
			}
			if _, ok := stabilize.IsLegal(t, links); !ok {
				row.AllConverged = false
			}
			sumRounds += int64(res.Rounds)
			sumDecycles += int64(res.DecycledEdges)
			sumMerges += int64(res.MergedRegions)
			if res.Rounds > row.MaxRounds {
				row.MaxRounds = res.Rounds
			}
			simRes, err := stabilize.RunSim(t, simLinks, stabilize.SimOptions{
				Seed: cfg.Seed + int64(n) + int64(trial),
			})
			if err != nil {
				row.SimConverged = false
				continue
			}
			if simRes.Sink != res.Sink {
				row.SinksAgree = false
			}
			sumMsgs += simRes.Messages
			sumTime += int64(simRes.ConvergenceTime)
			sumEpisodes += int64(simRes.Episodes)
			if simRes.Messages > row.MaxMessages {
				row.MaxMessages = simRes.Messages
			}
			if int64(simRes.ConvergenceTime) > row.MaxSimTime {
				row.MaxSimTime = int64(simRes.ConvergenceTime)
			}
		}
		row.AvgRounds = float64(sumRounds) / float64(cfg.Trials)
		row.AvgDecycles = float64(sumDecycles) / float64(cfg.Trials)
		row.AvgMerges = float64(sumMerges) / float64(cfg.Trials)
		row.AvgMessages = float64(sumMsgs) / float64(cfg.Trials)
		row.AvgSimTime = float64(sumTime) / float64(cfg.Trials)
		row.AvgEpisodes = float64(sumEpisodes) / float64(cfg.Trials)
		doc.Rows = append(doc.Rows, row)
	}
	return doc, nil
}

// StabilizeTable formats the self-stabilization experiment: oracle
// rounds next to message-driven cost in the protocols' hops/latency
// currency.
func StabilizeTable(rows []StabilizeRow) *Table {
	t := &Table{
		Title: "Self-stabilization (Herlihy–Tirthapura) — round oracle vs message-driven repair",
		Headers: []string{"n", "trials", "corrupt", "avg rounds", "max rounds",
			"avg de-cycles", "avg merges", "avg msgs", "avg time", "avg episodes",
			"sinks agree", "converged"},
	}
	for _, r := range rows {
		t.AddRow(r.N, r.Trials, r.CorruptFrac, r.AvgRounds, r.MaxRounds,
			r.AvgDecycles, r.AvgMerges, r.AvgMessages, r.AvgSimTime, r.AvgEpisodes,
			r.SinksAgree, r.AllConverged && r.SimConverged)
	}
	return t
}

// StabilizeSchema versions the machine-readable stabilize document.
const StabilizeSchema = "arrowbench/stabilize/v1"

// StabilizeConfig is the stabilize experiment's parameters, recorded
// inside its document.
type StabilizeConfig struct {
	Sizes       []int   `json:"sizes"`
	CorruptFrac float64 `json:"corrupt_frac"`
	Trials      int     `json:"trials"`
	Seed        int64   `json:"seed"`
}
