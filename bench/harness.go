package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// runConfig is everything one pass needs beyond the workload itself.
type runConfig struct {
	seed    int64
	seconds float64
	sz      sizes
	trace   bool
	outDir  string
	host    fingerprint
	// minUnits is the fewest units of each kind a pass runs, however
	// short --seconds is: a median needs three values.
	minUnits int
	// setupReps is how many times setup (construction plus warm-up) runs;
	// setup_s is the median.
	setupReps int
}

// kind selects how a unit is built.
type kind int

const (
	// kindBare runs the workload as a user would: no decorators.
	kindBare kind = iota
	// kindTraced wraps every injectable interface in its decorator.
	kindTraced
	// kindSerial reruns a parallel workload's cells at Workers 1, bare:
	// the reference for sim.drain.speedup and for the digest.
	kindSerial
)

// unitRun is one timed unit: what it produced and what it cost.
type unitRun struct {
	out  *outcome
	cost cost
}

// pass accumulates the units of one workload pass by kind.
type pass struct {
	w      workload
	cfg    runConfig
	tr     *tracer
	root   int32
	began  time.Time
	setupS []float64
	// allocB is everything the process allocated during the timed phase:
	// the units, their preparation and the harness's own records.
	allocB   uint64
	units    map[kind][]unitRun
	digests  map[string]bool
	problems []string
}

// runWorkload executes one pass of w: setup (several times), then units
// of fixed work until cfg.seconds have passed, then — in the traced
// pass — the isolated probes. It returns the result document and, for a
// traced pass, the tracer holding the spans.
func runWorkload(w workload, cfg runConfig) (*resultDoc, *tracer, error) {
	p := &pass{w: w, cfg: cfg, root: noSpan, began: time.Now(), units: map[kind][]unitRun{}, digests: map[string]bool{}}
	if cfg.trace {
		p.tr = newTracer(w.name, w.concurrent)
		p.root = p.tr.start("workload:"+w.name, noSpan)
	}
	inst, err := p.setup()
	if err != nil {
		return nil, nil, err
	}
	kinds := []kind{kindBare}
	if cfg.trace {
		kinds = append(kinds, kindTraced)
		if w.hasSerial {
			kinds = append(kinds, kindSerial)
		}
	}
	before, start := readUsage(), time.Now()
	for i := 0; i < cfg.minUnits*len(kinds) || time.Since(start).Seconds() < cfg.seconds; i++ {
		if err := p.runUnit(inst, kinds[i%len(kinds)]); err != nil {
			return nil, nil, err
		}
	}
	p.allocB = readUsage().since(before).allocB
	p.tr.end(p.root)

	doc := p.document()
	if cfg.trace {
		probes := runProbes(cfg.sz, cfg.seed)
		doc.Metrics = p.layerMetrics(probes).render(perLayer)
	}
	return doc, p.tr, nil
}

// setup builds the workload's inputs and runs a warm-up unit,
// cfg.setupReps times, and keeps the last instance for the timed units.
// The warm-up is always bare: it exists to fill caches and finish lazy
// initialisation, and its time is part of setup_s so that work moved out
// of the timed units into set-up still shows.
func (p *pass) setup() (instance, error) {
	var inst instance
	for r := 0; r < p.cfg.setupReps; r++ {
		span := p.tr.start("setup", p.root)
		start := time.Now()
		var err error
		if inst, err = p.w.setup(p.cfg.seed, p.cfg.sz); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		u, err := inst.unit(false, warmDivisor, nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		warm := p.tr.start("warm-up", span)
		out, err := u.run(warm)
		p.tr.end(warm)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if u.teardown != nil {
			u.teardown(out)
		}
		p.setupS = append(p.setupS, time.Since(start).Seconds())
		p.tr.end(span)
		for _, problem := range out.problems {
			p.problems = append(p.problems, "warm-up: "+problem)
		}
	}
	return inst, nil
}

// runUnit builds, times and tears down one unit of kind k.
func (p *pass) runUnit(inst instance, k kind) error {
	var tr *tracer
	if k == kindTraced {
		tr = p.tr
	}
	name := [...]string{kindBare: "bare", kindTraced: "traced", kindSerial: "serial"}[k]
	span := p.tr.start("unit:"+name, p.root)
	defer p.tr.end(span)

	prep := p.tr.start("prepare", span)
	u, err := inst.unit(k == kindSerial, 1, tr)
	// Collect the previous unit's garbage now, so no unit pays for its
	// predecessor inside its timed interval.
	runtime.GC()
	p.tr.end(prep)
	if err != nil {
		return fmt.Errorf("prepare %s unit: %w", name, err)
	}

	run := p.tr.start("run", span)
	var out *outcome
	c, err := measure(func() (err error) {
		out, err = u.run(run)
		return err
	})
	p.tr.end(run)
	if err != nil {
		return fmt.Errorf("%s unit: %w", name, err)
	}
	if u.teardown != nil {
		td := p.tr.start("teardown", span)
		u.teardown(out)
		p.tr.end(td)
	}
	p.units[k] = append(p.units[k], unitRun{out, c})
	p.problems = append(p.problems, out.problems...)
	if p.w.simulated {
		p.digests[out.digest] = true
	}
	return nil
}

// perUnit maps every unit of kind k through f.
func (p *pass) perUnit(k kind, f func(unitRun) float64) []float64 {
	xs := make([]float64, len(p.units[k]))
	for i, u := range p.units[k] {
		xs[i] = f(u)
	}
	return xs
}

// document assembles the pass's result document with the end-to-end
// metrics; a traced pass overwrites Metrics with the per-layer set.
func (p *pass) document() *resultDoc {
	units, attempted, failed := 0, int64(0), int64(0)
	for _, us := range p.units {
		units += len(us)
		for _, u := range us {
			attempted += u.out.attempted
			failed += u.out.failed
		}
	}
	samples := map[string][]float64{
		"requests_per_sec": p.perUnit(kindBare, func(u unitRun) float64 { return float64(u.out.sim.Requests) / u.cost.wallS }),
		"cpu_s_per_mreq":   p.perUnit(kindBare, func(u unitRun) float64 { return u.cost.cpuS() / float64(u.out.sim.Requests) * 1e6 }),
		"setup_s":          p.setupS,
	}
	// On a shared host interference comes in bursts of seconds and only
	// ever slows a unit down, so the two speed metrics report the quartile
	// on the fast side: it tracks the code while three units in four are
	// disturbed, where the median gives way at two in four.
	_, fastRPS := quartiles(samples["requests_per_sec"])
	fastCPU, _ := quartiles(samples["cpu_s_per_mreq"])
	m := metricSet{
		"requests_per_sec": fastRPS,
		"cpu_s_per_mreq":   fastCPU,
		"alloc_mb":         float64(p.allocB) / 1e6 / float64(units),
		"setup_s":          median(p.setupS),
	}

	// Untraced, traced and serial-rerun units all simulate the same
	// inputs: more than one digest means a decorator or the parallel
	// drain changed the simulated behaviour.
	problems := p.problems
	digest := ""
	if p.w.simulated {
		var ds []string
		for d := range p.digests {
			ds = append(ds, d)
		}
		sort.Strings(ds)
		digest = ds[0]
		if len(ds) > 1 {
			problems = append(problems, fmt.Sprintf("units of one seed produced %d different sim digests: %v", len(ds), ds))
		}
	}

	doc := &resultDoc{
		Schema: resultSchema, Workload: p.w.name, Trace: p.cfg.trace,
		Seed: p.cfg.seed, Scale: p.cfg.sz.scale, Seconds: p.cfg.seconds, StartedNS: p.began.UnixNano(), Host: p.cfg.host,
		Comparable: p.cfg.host.comparable(), Units: units, SimDigest: digest, Samples: samples, Problems: problems,
	}
	doc.Attempted, doc.Failed = attempted, failed
	if !doc.Comparable {
		doc.NotComparable = fmt.Sprintf("nproc = %d: drain-parallel and paper-grid need %d cores to run their two workers in parallel; these numbers measure time slicing and must not be compared with another host's",
			p.cfg.host.NProc, minComparableProcs)
	}
	doc.Correct = len(problems) == 0 && doc.Failed == 0
	if !doc.Correct {
		// A workload that fails a check has no trustworthy numbers: its
		// failed ratio reads 1.
		doc.Failed = doc.Attempted
	}
	doc.Metrics = m.render(endToEnd)
	return doc
}
