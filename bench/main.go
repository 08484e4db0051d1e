// Command bench is the repository's performance ledger: six named
// workloads over the simulator, the protocol drivers, the sweep engine
// and the live runtime, measured end to end with tracing off and layer
// by layer in a traced pass. See README.md in this directory.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1   one pass of one workload
//	bench --seed N --seconds S --out DIR                     every workload, untraced then traced
//	bench --compare A B                                      judge result set B against A
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run (default: all six, untraced then traced)")
		seed    = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 15, "how long each pass repeats its unit of work")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass, per-layer metrics")
		out     = fs.String("out", "", "directory for result documents and trace files (default: none written)")
		compare = fs.Bool("compare", false, "compare two result sets: bench --compare A B")
		bounds  = fs.String("benchmark", "", "BENCHMARK.json with the regression bounds (default: ./BENCHMARK.json, then ../BENCHMARK.json)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: --compare takes two result sets (directories or files): bench --compare A B")
			return 2
		}
		code, err := runCompare(stdout, *bounds, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		return code
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: --seconds must be positive, --trace 0 or 1")
		return 2
	}
	cfg := runConfig{
		seed: *seed, seconds: *seconds, sz: fullSizes(),
		outDir: *out, host: takeFingerprint(), minUnits: 3, setupReps: 5,
	}
	printHost(stdout, cfg.host)

	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		cfg.trace = *trace == 1
		return runAndReport(w, cfg, stdout, stderr, true)
	}
	code := 0
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			cfg.trace = traced
			if c := runAndReport(w, cfg, stdout, stderr, false); c != 0 {
				code = c
			}
		}
	}
	return code
}

// runAndReport runs one pass, prints its metrics and writes its
// documents. With last set, the final line of standard output is the
// one-object JSON summary.
func runAndReport(w workload, cfg runConfig, stdout, stderr io.Writer, last bool) int {
	doc, tr, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	printDoc(stdout, doc)
	if cfg.outDir != "" {
		path, err := doc.write(cfg.outDir)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "result:", path)
		if tr != nil {
			path, err := tr.write(cfg.outDir)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			fmt.Fprintln(stdout, "trace:", path)
		}
	}
	if last {
		line, err := json.Marshal(doc.summary)
		if err != nil {
			fmt.Fprintln(stderr, "bench: encode summary:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	if !doc.Correct {
		for _, p := range doc.Problems {
			fmt.Fprintf(stderr, "bench: %s: %s\n", w.name, p)
		}
		fmt.Fprintf(stderr, "bench: %s: correctness checks failed\n", w.name)
		return 1
	}
	return 0
}

func printHost(w io.Writer, h fingerprint) {
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s cpu=%q calibration_ns=%.0f commit=%s\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.CalibrationNS, h.Commit)
}

// printDoc prints every metric of the pass by name with its unit, in
// declaration order.
func printDoc(w io.Writer, d *resultDoc) {
	pass, defs := "untraced", endToEnd
	if d.Trace {
		pass, defs = "traced", perLayer
	}
	fmt.Fprintf(w, "\n== %s (%s) seed=%d scale=%g units=%d attempted=%d failed=%d correct=%v\n",
		d.Workload, pass, d.Seed, d.Scale, d.Units, d.Attempted, d.Failed, d.Correct)
	if !d.Comparable {
		fmt.Fprintln(w, "NOT COMPARABLE:", d.NotComparable)
	}
	if d.SimDigest != "" {
		fmt.Fprintln(w, "sim_digest", d.SimDigest)
	}
	for _, def := range defs {
		fmt.Fprintf(w, "%-34s %18.6f %s\n", def.name, d.Metrics[def.name].Value, def.unit)
	}
}
