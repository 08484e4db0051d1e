package main

import "sort"

// layerMetrics computes the traced pass's per-layer metrics. Counts are
// per unit (units of one pass do identical simulated work, so the first
// unit's counts are every unit's); times are medians over units. The
// bare units are the reference for run time: decorators slow the traced
// units down, and trace.overhead_ratio says by how much.
func (p *pass) layerMetrics(probes []probeResult) metricSet {
	m := metricSet{}
	probeNS := map[string]float64{}
	for _, pr := range probes {
		m[pr.name] = pr.ns
		probeNS[pr.name] = pr.ns
	}

	bare, traced := p.units[kindBare], p.units[kindTraced]
	bareWall := median(p.perUnit(kindBare, func(u unitRun) float64 { return u.cost.wallS }))
	tracedWall := median(p.perUnit(kindTraced, func(u unitRun) float64 { return u.cost.wallS }))
	tracedUnits := float64(len(traced))
	first := bare[0].out
	// Layer busy times and the cost model add up time on processors. On
	// a serial workload that is the run's wall time; where two workers
	// run at once it is the run's CPU time.
	runS := bareWall
	if p.w.concurrent {
		runS = median(p.perUnit(kindBare, func(u unitRun) float64 { return u.cost.cpuS() }))
	}

	// Layer aggregates span every traced unit; divide down to one.
	perUnit := func(layer string) (calls, busyS float64) {
		st := p.tr.stat(layer)
		return float64(st.calls) / tracedUnits, st.busyS / tracedUnits
	}
	navCalls, navBusy := perUnit(layerNav)
	_, topoBusy := perUnit(layerTopology)
	stepCalls, stepBusy := perUnit(layerStep)
	recCalls, recBusy := perUnit(layerRecord)

	m["host.cpu_user_s"] = median(p.perUnit(kindBare, func(u unitRun) float64 { return u.cost.userS }))
	m["host.cpu_sys_s"] = median(p.perUnit(kindBare, func(u unitRun) float64 { return u.cost.sysS }))
	m["host.cpu_util"] = median(p.perUnit(kindBare, func(u unitRun) float64 { return u.cost.cpuS() / u.cost.wallS }))
	m["host.gc_cycles"] = median(p.perUnit(kindBare, func(u unitRun) float64 { return float64(u.cost.gcCycles) }))
	m["host.gc_pause_ms"] = median(p.perUnit(kindBare, func(u unitRun) float64 { return float64(u.cost.pauseNS) / 1e6 }))
	m["host.heap_sys_mb"] = median(p.perUnit(kindBare, func(u unitRun) float64 { return float64(u.cost.heapSys) / 1e6 }))
	m["host.calibration_ns"] = p.cfg.host.CalibrationNS
	m["trace.overhead_ratio"] = tracedWall / bareWall

	if p.w.simulated {
		s := first.sim
		events, requests := float64(s.Events), float64(s.Requests)
		m["tree.nav_calls"] = navCalls
		m["tree.nav_calls_per_event"] = navCalls / events
		m["tree.busy_s"] = navBusy

		m["sim.events"] = events
		m["sim.events_per_request"] = events / requests
		m["sim.sends"] = float64(s.Sends)
		m["sim.timers"] = float64(s.Events - s.Sends)
		m["sim.events_per_sec"] = events / bareWall
		m["sim.ns_per_event"] = bareWall * 1e9 / events
		// No workload wraps a Nav underneath a wrapped Topology, so the
		// two busy times never overlap and their sum is the time in the
		// topology layer, tree included.
		m["sim.topology_busy_s"] = topoBusy + navBusy
		// sim.self_s is the remainder, so the layer times and it add up to
		// the run by construction; it goes negative when the busy estimates
		// overshoot the run itself.
		m["sim.self_s"] = runS - (topoBusy + navBusy + stepBusy + recBusy)
		m["sim.makespan_ticks"] = float64(s.Makespan)
		m["sim.queue_hops_per_request"] = float64(s.QueueHops) / requests
		if s.Latency != nil {
			m["sim.p99_latency_ticks"] = float64(s.Latency.Quantile(99))
		}

		// The cost model: every timer priced at the scheduler probe of the
		// tier it lands in, every send at the send probe of its link-state
		// configuration. What the model does not explain — the protocol
		// handler and the driver around it — is the residual.
		far := float64(s.FarTimers)
		near := float64(s.Events-s.Sends) - far
		m["sim.far_timers"] = far
		m["sim.est_overflow_s"] = far * probeNS["sim.probe.sched_overflow_ns"] * 1e-9
		m["sim.est_sched_s"] = near*probeNS["sim.probe.sched_ring_ns"]*1e-9 + m["sim.est_overflow_s"]
		for probe, sends := range s.SendsBy {
			m["sim.est_send_s"] += float64(sends) * probeNS[probe] * 1e-9
		}
		m["driver.residual_s"] = runS - m["sim.est_sched_s"] - m["sim.est_send_s"]

		m["proto.step_calls"] = stepCalls
		m["proto.step_busy_s"] = stepBusy
		m["proto.local_ratio"] = float64(s.Local) / requests
		m["proto.hops_max"] = float64(s.MaxHops)
		m["stats.records"] = recCalls
		m["stats.busy_s"] = recBusy
		m["workload.zipf_draws"] = float64(s.ZipfDraws)
	}

	if p.w.hasSerial {
		p.drainMetrics(m)
	}
	if first.sweepWallS > 0 {
		p.sweepMetrics(m)
	}
	if first.rt != nil {
		p.runtimeMetrics(m)
	}
	return m
}

// cellMedian is the median over units of kind k of f applied to the
// cell at index i.
func (p *pass) cellMedian(k kind, i int, f func(cellStat) float64) float64 {
	return median(p.perUnit(k, func(u unitRun) float64 { return f(u.out.cells[i]) }))
}

// drainMetrics reports the parallel drain cell by cell (.w1 is the
// one-tick window, .w8 the eight-tick window) against the Workers 1
// rerun of the same cell. A speedup below 1 is reported as measured.
func (p *pass) drainMetrics(m metricSet) {
	for i, c := range p.units[kindBare][0].out.cells {
		wall := func(c cellStat) float64 { return c.wallS }
		alloc := func(c cellStat) float64 { return float64(c.allocB) }
		sfx := "." + c.name
		m["sim.drain.window_width"+sfx] = float64(c.drain.WindowWidth)
		m["sim.drain.windows"+sfx] = float64(c.drain.Windows)
		m["sim.drain.mean_batch"+sfx] = c.drain.MeanBatch()
		m["sim.drain.windows_per_mev"+sfx] = float64(c.drain.Windows) / (float64(c.events) / 1e6)
		m["sim.drain.speedup"+sfx] = p.cellMedian(kindSerial, i, wall) / p.cellMedian(kindBare, i, wall)
		m["sim.drain.alloc_ratio"+sfx] = p.cellMedian(kindBare, i, alloc) / p.cellMedian(kindSerial, i, alloc)
		m["sim.drain.cpu_ns_per_event"+sfx] = p.cellMedian(kindBare, i, func(c cellStat) float64 {
			return c.cpuS * 1e9 / float64(c.events)
		})
	}
}

// sweepMetrics reports how well the two sweep workers were used: the
// cells' busy time over the time two workers had.
func (p *pass) sweepMetrics(m metricSet) {
	busy := func(u unitRun) (sum, longest float64) {
		for _, c := range u.out.cells {
			sum += c.wallS
			longest = max(longest, c.wallS)
		}
		return sum, longest
	}
	m["engine.cells"] = float64(len(p.units[kindTraced][0].out.cells))
	m["engine.cell_busy_s_sum"] = median(p.perUnit(kindTraced, func(u unitRun) float64 { sum, _ := busy(u); return sum }))
	m["engine.cell_busy_s_max"] = median(p.perUnit(kindTraced, func(u unitRun) float64 { _, longest := busy(u); return longest }))
	m["engine.sweep_efficiency"] = median(p.perUnit(kindTraced, func(u unitRun) float64 {
		sum, _ := busy(u)
		return sum / (maxLoadWorkers * u.out.sweepWallS)
	}))
}

// runtimeMetrics reports the live runtime's host-time latencies over
// every request of the pass's bare units, quoting a percentile only
// when enough samples lie beyond it.
func (p *pass) runtimeMetrics(m metricSet) {
	var submit, wait, total []float64
	var hops float64
	for _, u := range p.units[kindBare] {
		rt := u.out.rt
		submit = append(submit, rt.submitNS...)
		wait = append(wait, rt.waitNS...)
		total = append(total, rt.totalNS...)
		hops += float64(rt.hops)
	}
	sort.Float64s(submit)
	sort.Float64s(wait)
	sort.Float64s(total)
	const us = 1e-3
	first := p.units[kindBare][0].out.rt
	m["runtime.accepted"] = float64(first.accepted)
	m["runtime.rejected"] = float64(first.rejected)
	m["runtime.latency_samples"] = float64(len(total))
	m["runtime.p50_latency_us"] = quotable(total, 50) * us
	m["runtime.p99_latency_us"] = quotable(total, 99) * us
	m["runtime.p999_latency_us"] = quotable(total, 99.9) * us
	m["runtime.p9999_latency_us"] = quotable(total, 99.99) * us
	m["runtime.submit_us_p50"] = quotable(submit, 50) * us
	m["runtime.submit_us_p99"] = quotable(submit, 99) * us
	m["runtime.wait_us_p50"] = quotable(wait, 50) * us
	m["runtime.hops_per_request"] = hops / float64(len(total))
	m["runtime.stop_s"] = median(p.perUnit(kindBare, func(u unitRun) float64 { return u.out.rt.stopS }))
}
