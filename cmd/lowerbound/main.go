// Command lowerbound generates and runs the Theorem 4.1 adversarial
// instance (the Figure 9 construction): a recursively built request set
// on a path spanning tree of diameter D. It prints the instance, arrow's
// measured cost, bounds on the optimal offline cost, and the resulting
// ratio, optionally dumping the request set for inspection.
//
// Usage:
//
//	lowerbound -logd 6          # D = 64, paper's Figure 9 diameter
//	lowerbound -logd 6 -k 6     # override recursion depth (paper's figure)
//	lowerbound -logd 5 -dump    # print every generated request
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/arrow"
	"repro/internal/graph"
	"repro/internal/opt"
	"repro/internal/tree"
	"repro/internal/workload"
)

// config carries the parsed flags; main builds it, tests build it
// directly.
type config struct {
	logD int
	k    int
	dump bool
}

func main() {
	cfg := config{}
	flag.IntVar(&cfg.logD, "logd", 6, "diameter exponent: D = 2^logd")
	flag.IntVar(&cfg.k, "k", 0, "recursion depth (0 = paper's log D / log log D)")
	flag.BoolVar(&cfg.dump, "dump", false, "print the generated request set")
	flag.Parse()
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lowerbound:", err)
		os.Exit(1)
	}
}

// run executes the lower-bound instance, writing the report to w.
func run(cfg config, w io.Writer) error {
	depth := cfg.k
	if depth == 0 {
		depth = workload.DefaultK(1 << cfg.logD)
	}
	inst := workload.LowerBound(cfg.logD, depth)
	fmt.Fprintf(w, "Theorem 4.1 instance: path diameter D=%d, recursion depth k=%d, |R|=%d\n",
		inst.D, inst.K, len(inst.Set))
	if cfg.dump {
		for _, r := range inst.Set {
			fmt.Fprintf(w, "  r%-4d = (v%d, t=%d)\n", r.ID, r.Node, r.Time)
		}
	}

	t := tree.PathTree(inst.D + 1)
	g := graph.Path(inst.D + 1)
	res, err := arrow.Run(t, inst.Set, arrow.Options{Root: inst.Root})
	if err != nil {
		return err
	}
	bounds := opt.Compute(g, inst.Root, inst.Set, opt.DistOfGraph(g))

	fmt.Fprintf(w, "\narrow total latency:      %d\n", res.TotalLatency)
	fmt.Fprintf(w, "arrow total hops:         %d\n", res.TotalHops)
	fmt.Fprintf(w, "optimal cost upper bound: %d (achievable order)\n", bounds.Upper)
	if bounds.Exact {
		fmt.Fprintf(w, "optimal cost lower bound: %d (exact)", bounds.Lower)
	} else {
		fmt.Fprintf(w, "optimal cost estimate:    %d (ManhattanMST/12, uncertified: it can exceed the optimum)", bounds.Lower)
	}
	fmt.Fprintf(w, "\nmeasured ratio:           %.3f (>= true competitive ratio witness)\n",
		opt.Ratio(res.TotalLatency, bounds.Upper))
	fmt.Fprintf(w, "measured cost(arrow)/D:   %.3f (the construction aims at about k = %d)\n",
		float64(res.TotalLatency)/float64(inst.D), inst.K)
	return nil
}
