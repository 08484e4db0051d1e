package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadBounds reads BENCHMARK.json from path, or from the current
// directory and then its parent when path is empty (the benchmark runs
// from the repository root or from bench/).
func loadBounds(path string) (*benchmarkFile, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")}
	}
	for _, c := range candidates {
		buf, err := os.ReadFile(c)
		if errors.Is(err, fs.ErrNotExist) && path == "" {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("read bounds: %w", err)
		}
		var b benchmarkFile
		if err := json.Unmarshal(buf, &b); err != nil {
			return nil, fmt.Errorf("parse %s: %w", c, err)
		}
		return &b, nil
	}
	return nil, errors.New("no BENCHMARK.json here or in the parent directory; pass --benchmark")
}

// loadResults reads every result document of a set: a single file, or
// all result-*.json files of a directory.
func loadResults(set string) ([]resultDoc, error) {
	info, err := os.Stat(set)
	if err != nil {
		return nil, fmt.Errorf("result set: %w", err)
	}
	paths := []string{set}
	if info.IsDir() {
		if paths, err = filepath.Glob(filepath.Join(set, "result-*.json")); err != nil {
			return nil, err
		}
		sort.Strings(paths)
	}
	var docs []resultDoc
	for _, path := range paths {
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("read result: %w", err)
		}
		var d resultDoc
		if err := json.Unmarshal(buf, &d); err != nil {
			return nil, fmt.Errorf("parse %s: %w", path, err)
		}
		if d.Schema != resultSchema {
			return nil, fmt.Errorf("%s: schema %q, want %q", path, d.Schema, resultSchema)
		}
		docs = append(docs, d)
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("result set %s holds no result documents", set)
	}
	return docs, nil
}

// Verdicts of one workload × metric row.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictSame       = "same"
	verdictUnresolved = "unresolved"
)

// side summarises one result set's runs of one workload × metric.
type side struct {
	med    float64
	q1, q3 float64
	lo, hi float64
}

func summarise(values []float64) side {
	s := side{med: median(values)}
	s.q1, s.q3 = quartiles(values)
	sv := sorted(values)
	s.lo, s.hi = sv[0], sv[len(sv)-1]
	return s
}

// resolution is the smallest relative difference reported as a change:
// the harness's own bookkeeping moves the otherwise deterministic
// alloc_mb in its sixth digit.
const resolution = 1e-3

// judge applies the benchmark's rule to one row. B is better only when
// every one of its runs beats every run of A and the medians differ by
// more than A's own quartile spread. Otherwise, when either side's
// spread exceeds the bound the medians cannot resolve a difference of
// that size and the row is unresolved, not "same". Otherwise B is worse
// when its median is worse than A's by more than the bound.
func judge(a, b side, better string, bound float64) string {
	// delta > 0 means B is worse, whichever direction is better.
	delta := (b.med - a.med) / a.med
	allBetter := b.hi < a.lo
	if better == higher {
		delta = -delta
		allBetter = b.lo > a.hi
	}
	iqrA, iqrB := (a.q3-a.q1)/a.med, (b.q3-b.q1)/a.med
	switch {
	case allBetter && -delta > max(iqrA, resolution):
		return verdictBetter
	case max(iqrA, iqrB) > bound:
		return verdictUnresolved
	case delta > bound:
		return verdictWorse
	default:
		return verdictSame
	}
}

// runs gathers one result set's untraced runs of one workload at one
// seed: the values behind each row, and what disqualifies them.
type runs struct {
	vals map[string][]float64
	// tainted: a run from a one-core host, or one that failed its checks,
	// carries no comparable number.
	tainted bool
	digests []string
	// first and last are the earliest and latest pass start (Unix ns).
	first, last int64
}

type runKey struct {
	workload string
	seed     int64
}

// group splits a result set by workload and seed. Different seeds give
// different inputs (alloc_mb and requests_per_sec move with them), so
// runs are only ever pooled within one seed.
func group(docs []resultDoc) map[runKey]*runs {
	out := map[runKey]*runs{}
	for _, d := range docs {
		k := runKey{d.Workload, d.Seed}
		r := out[k]
		if r == nil {
			r = &runs{vals: map[string][]float64{}, first: math.MaxInt64}
			out[k] = r
		}
		if d.SimDigest != "" && !slices.Contains(r.digests, d.SimDigest) {
			r.digests = append(r.digests, d.SimDigest)
		}
		if d.Trace {
			continue
		}
		if !d.Comparable || !d.Correct {
			r.tainted = true
		}
		r.first, r.last = min(r.first, d.StartedNS), max(r.last, d.StartedNS)
		for name, v := range d.Metrics {
			r.vals[name] = append(r.vals[name], v.Value)
		}
	}
	return out
}

// runCompare prints one row per workload × seed × end-to-end metric and
// one per simulated workload's digest. It returns 1 when any row is worse
// or any digest differs: a change to the simulated behaviour is a change
// to the paper's numbers, whatever it does to the host-time metrics.
func runCompare(w io.Writer, boundsPath, setA, setB string) (int, error) {
	bounds, err := loadBounds(boundsPath)
	if err != nil {
		return 0, err
	}
	a, err := loadResults(setA)
	if err != nil {
		return 0, err
	}
	b, err := loadResults(setB)
	if err != nil {
		return 0, err
	}
	ga, gb := group(a), group(b)
	order := map[string]int{}
	for i, wl := range workloads {
		order[wl.name] = i
	}
	var keys []runKey
	for k := range ga {
		keys = append(keys, k)
	}
	for k := range gb {
		if ga[k] == nil {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return order[keys[i].workload] < order[keys[j].workload]
		}
		return keys[i].seed < keys[j].seed
	})
	// Keep what both sides hold; name the rest.
	keys = slices.DeleteFunc(keys, func(k runKey) bool {
		if ga[k] != nil && gb[k] != nil {
			return false
		}
		only := "A"
		if ga[k] == nil {
			only = "B"
		}
		fmt.Fprintf(w, "%s seed=%d: only in %s, not compared\n", k.workload, k.seed, only)
		return true
	})

	worse, changed, sequential := 0, 0, 0
	fmt.Fprintf(w, "%-24s %-6s %-18s %-7s %14s %27s %14s %27s %8s  %s\n",
		"workload", "seed", "metric", "bound", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "delta", "verdict")
	for _, k := range keys {
		ra, rb := ga[k], gb[k]
		// With several runs a side, one side wholly before the other means
		// the host's drift between the two is in every delta.
		note := ""
		if len(ra.vals["setup_s"]) > 1 && len(rb.vals["setup_s"]) > 1 && (ra.last < rb.first || rb.last < ra.first) {
			note = " (not interleaved)"
			sequential++
		}
		for _, e := range bounds.EndToEnd {
			va, vb := ra.vals[e.Name], rb.vals[e.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sa, sb := summarise(va), summarise(vb)
			verdict := judge(sa, sb, e.Better, e.Bound)
			if ra.tainted || rb.tainted {
				verdict = verdictUnresolved
			}
			if verdict == verdictWorse {
				worse++
			}
			fmt.Fprintf(w, "%-24s %-6d %-18s %-7.3g %14.6g [%12.6g,%12.6g] %14.6g [%12.6g,%12.6g] %+7.2f%%  %s%s\n",
				k.workload, k.seed, e.Name, e.Bound, sa.med, sa.q1, sa.q3, sb.med, sb.q1, sb.q3,
				100*(sb.med-sa.med)/sa.med, verdict, note)
		}
	}
	for _, k := range keys {
		da, db := ga[k].digests, gb[k].digests
		if len(da) == 0 && len(db) == 0 {
			continue
		}
		verdict := "identical"
		if len(da) != 1 || !slices.Equal(da, db) {
			verdict = fmt.Sprintf("CHANGED: simulated behaviour differs (%s vs %s)", strings.Join(da, ","), strings.Join(db, ","))
			changed++
		}
		fmt.Fprintf(w, "sim_digest %-24s %-6d %s\n", k.workload, k.seed, verdict)
	}
	if sequential > 0 {
		fmt.Fprintf(w, "%d workload(s) had one set taken wholly before the other: alternate the sides run by run, or host drift reads as a change\n", sequential)
	}
	if worse > 0 || changed > 0 {
		fmt.Fprintf(w, "%d row(s) worse than the bound allows, %d digest(s) changed\n", worse, changed)
		return 1, nil
	}
	return 0, nil
}
