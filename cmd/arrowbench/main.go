// Command arrowbench regenerates the paper's tables and figures plus the
// theory-validation experiments described in DESIGN.md. The experiments
// are the entries of analysis.Experiments; `arrowbench -h` lists them.
//
//	arrowbench -exp fig10        # one experiment
//	arrowbench -exp all          # every entry not marked opt-in, in table order
//
// The -pernode, -seed and -sizes flags scale the Section 5 experiments
// (fig10, fig11, baselines, perf); the paper used 100,000 requests per
// processor on up to 76 processors, which this harness reproduces
// shape-exactly at smaller default sizes (pass -pernode 100000 for the
// full run). Every sweep fans its cells across -workers simulator
// workers (default GOMAXPROCS); results are identical for every worker
// count. Pass -json to emit every table as a machine-readable JSON
// document (one per table) instead of aligned text. For -exp perf,
// scale, shard, churn and stabilize, -json emits the experiment's
// versioned arrowbench/<exp> document instead of generic tables; the
// first four are pinned byte for byte under
// internal/analysis/testdata (TestDocumentsGolden).
//
// -exp scale is the million-node tier: every protocol on its implicit
// topology (no LCA tables, no O(n²) metric), sequential cells reporting
// bytes/node and events/s. Its -sizes default is 10000,100000,1000000
// (an explicit -sizes overrides it), its per-node count derives from a
// 2M total-request budget unless -pernode is passed explicitly; -workers
// does not apply (cells are sequential so each one's allocation delta is
// its own).
//
// -exp shard is the multi-object tier: every protocol serving k
// independent objects on one shared 32-node network with per-link
// capacity 1, across an objects × Zipf-skew grid (default k in
// {16, 128, 1024}, skew in {0, 1.1}; override the object counts with
// -objects). Each row reports the aggregate cost of the combined
// traffic plus a fairness summary across objects. Its per-node default
// is 250 requests unless -pernode is passed explicitly.
//
// -cpuprofile and -memprofile write pprof profiles covering the
// selected experiment (the memory profile is written at exit, after a
// final GC), for digging into exactly the hot paths the scale tier
// exercises.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run, or all")
	perNode := flag.Int("pernode", 2000, "closed-loop requests per node (paper: 100000)")
	seed := flag.Int64("seed", 1, "deterministic seed")
	sizes := flag.String("sizes", "2,4,8,16,24,32,48,64,76", "comma-separated node counts for fig10/fig11, baselines and perf")
	objects := flag.String("objects", "", "comma-separated object counts for -exp shard (default 16,128,1024)")
	workers := flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON tables")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (post-GC, at exit) to this file")
	flag.Usage = usage
	flag.Parse()

	p := analysis.Params{PerNode: *perNode, Seed: *seed, Workers: *workers}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "sizes":
			p.SizesSet = true
		case "pernode":
			p.PerNodeSet = true
		}
	})
	var err error
	if p.Sizes, err = parseSizes(*sizes); err == nil && *objects != "" {
		p.Objects, err = parseSizes(*objects)
	}
	if err == nil {
		err = execute(*exp, p, *jsonOut, *cpuProfile, *memProfile)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "arrowbench:", err)
		os.Exit(1)
	}
}

// usage prints the flags and the experiment list, generated from
// analysis.Experiments.
func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprintln(w, "Usage of arrowbench:")
	flag.PrintDefaults()
	fmt.Fprintln(w, "\nExperiments (-exp):")
	for _, e := range analysis.Experiments {
		optIn := ""
		if e.OptIn {
			optIn = " [opt-in]"
		}
		fmt.Fprintf(w, "  %-12s %s%s\n", e.Name, e.Desc, optIn)
	}
	fmt.Fprintln(w, "  all          every experiment above not marked [opt-in], in that order")
}

// execute runs the selected experiments under the requested profiles.
func execute(exp string, p analysis.Params, jsonOut bool, cpuProfile, memProfile string) error {
	selected, err := selectExperiments(exp)
	if err != nil {
		return err
	}
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	for _, e := range selected {
		res, err := e.Run(p)
		if err != nil {
			return err
		}
		if err := emit(os.Stdout, res, jsonOut); err != nil {
			return err
		}
	}
	if memProfile != "" {
		return writeHeapProfile(memProfile)
	}
	return nil
}

// selectExperiments resolves -exp: one entry of analysis.Experiments by
// name, or for "all" every entry not marked opt-in, in table order.
func selectExperiments(name string) ([]analysis.Experiment, error) {
	var selected []analysis.Experiment
	known := make([]string, 0, len(analysis.Experiments)+1)
	for _, e := range analysis.Experiments {
		known = append(known, e.Name)
		if e.Name == name || (name == "all" && !e.OptIn) {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("unknown experiment %q (known: %s)", name, strings.Join(append(known, "all"), ", "))
	}
	return selected, nil
}

// emit prints one experiment's result: aligned text tables, or with
// -json its versioned document if it has one, else one JSON document per
// table.
func emit(w io.Writer, res analysis.Result, jsonOut bool) error {
	if jsonOut && res.Doc != nil {
		b, err := json.MarshalIndent(res.Doc, "", "  ")
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(w, string(b))
		return err
	}
	for _, t := range res.Tables {
		out := t.Render() + "\n"
		if jsonOut {
			out = t.RenderJSON()
		}
		if _, err := io.WriteString(w, out); err != nil {
			return err
		}
	}
	return nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parseSizes(s string) ([]int, error) {
	var ns []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		ns = append(ns, n)
	}
	return ns, nil
}
