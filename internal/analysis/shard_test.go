package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/sim"
)

// TestShardExperimentRows pins the grid's shape and the per-row
// conservation invariants on a small configuration.
func TestShardExperimentRows(t *testing.T) {
	cfg := ShardConfig{
		N:       16,
		PerNode: 10,
		Objects: []int{4, 32},
		Skews:   []float64{0, 1.1},
		Seed:    3,
	}
	doc, err := ShardExperiment(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := doc.Rows
	wantRows := len(cfg.Objects) * len(cfg.Skews) * len(shardProtocols())
	if len(rows) != wantRows {
		t.Fatalf("got %d rows, want %d", len(rows), wantRows)
	}
	for _, r := range rows {
		if r.Requests != int64(cfg.N)*int64(cfg.PerNode) {
			t.Errorf("%s k=%d s=%g: %d requests, want %d",
				r.Protocol, r.Objects, r.Skew, r.Requests, cfg.N*cfg.PerNode)
		}
		if r.Fairness.Objects != r.Objects {
			t.Errorf("%s k=%d: fairness ranges over %d objects", r.Protocol, r.Objects, r.Fairness.Objects)
		}
		if r.Latency.Count != r.Requests {
			t.Errorf("%s k=%d s=%g: latency dist counted %d of %d requests",
				r.Protocol, r.Objects, r.Skew, r.Latency.Count, r.Requests)
		}
		if r.Events <= 0 {
			t.Errorf("%s k=%d s=%g: %d events", r.Protocol, r.Objects, r.Skew, r.Events)
		}
		// The per-object request counts partition the row's requests, so
		// their extremes must bracket the mean; the per-object latency
		// extremes must be ordered around the p99.
		f, k := r.Fairness, int64(r.Objects)
		if f.MinRequests > f.MaxRequests || f.MinRequests*k > r.Requests || f.MaxRequests*k < r.Requests {
			t.Errorf("%s k=%d s=%g: request bounds [%d, %d] cannot partition %d requests",
				r.Protocol, r.Objects, r.Skew, f.MinRequests, f.MaxRequests, r.Requests)
		}
		if f.MinAvgLatency > f.P99AvgLatency || f.P99AvgLatency > f.MaxAvgLatency {
			t.Errorf("%s k=%d s=%g: latency extremes unordered (min %g, p99 %g, max %g)",
				r.Protocol, r.Objects, r.Skew, f.MinAvgLatency, f.P99AvgLatency, f.MaxAvgLatency)
		}
	}
	if out := ShardTable(rows).Render(); out == "" {
		t.Error("empty shard table")
	}
}

// TestShardDocumentWorkerIdentity is the experiment's headline gate:
// the marshalled shard document must be byte-identical across sweep
// pool sizes.
func TestShardDocumentWorkerIdentity(t *testing.T) {
	cfg := ShardConfig{
		N:       16,
		PerNode: 15,
		Objects: []int{8, 64},
		Skews:   []float64{0, 1.1},
		Seed:    7,
	}
	marshal := func(workers int) []byte {
		doc, err := ShardExperiment(cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := marshal(1)
	for _, w := range []int{2, 4} {
		if par := marshal(w); !bytes.Equal(serial, par) {
			t.Fatalf("shard document differs between workers=1 and workers=%d", w)
		}
	}
	// The schema promise: no workers field anywhere in the document.
	if bytes.Contains(serial, []byte("workers")) {
		t.Error("shard document leaks a workers field; byte-identity across -workers would be vacuous")
	}
}

// TestShardRowSharesOneSeed: every protocol of one (objects, skew) row
// runs on one seed, so the row compares protocols on one request stream
// rather than on seed noise, and distinct rows get distinct seeds.
func TestShardRowSharesOneSeed(t *testing.T) {
	cfg := ShardConfig{PerNode: 1, Objects: []int{4, 32, 256}, Skews: []float64{0, 1.1}, Seed: 5}.resolved()
	cells, err := shardCells(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		k int
		s float64
	}
	seeds := map[row]int64{}
	rows := map[int64]row{}
	for _, c := range cells {
		w := c.Instance.Workload
		r, seed := row{w.Objects, w.Skew}, c.Instance.Seed
		if prev, ok := seeds[r]; ok && prev != seed {
			t.Errorf("k=%d s=%g: %s runs on seed %d, an earlier protocol of the row on %d",
				r.k, r.s, c.Protocol.Name(), seed, prev)
		}
		seeds[r] = seed
		if other, ok := rows[seed]; ok && other != r {
			t.Errorf("rows %+v and %+v share seed %d", other, r, seed)
		}
		rows[seed] = r
	}
	if want := len(cfg.Objects) * len(cfg.Skews); len(seeds) != want {
		t.Errorf("%d rows, want %d", len(seeds), want)
	}
}

// TestShardRejectsObjectsBelowTwo: an object count below 2 is not a
// shard cell. Under skew 0 the workload builder accepts it, so without
// the config check the grid would run it as a single-object loop with
// an all-zero fairness block; it must be a typed error naming Objects,
// returned before any cell runs.
func TestShardRejectsObjectsBelowTwo(t *testing.T) {
	for _, k := range []int{1, 0, -3} {
		doc, err := ShardExperiment(ShardConfig{N: 8, PerNode: 5, Objects: []int{k}, Skews: []float64{0}}, 1)
		var ce *sim.ConfigError
		if !errors.As(err, &ce) || ce.Field != "Objects" {
			t.Errorf("Objects {%d}: got error %v, want a *sim.ConfigError on Objects", k, err)
		}
		if len(doc.Rows) != 0 {
			t.Errorf("Objects {%d}: %d rows returned beside the error", k, len(doc.Rows))
		}
	}
}
