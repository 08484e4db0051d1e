package sim

// LatencyModel maps an edge's nominal weight to a per-message delay.
// Implementations must return delays in [1, ∞); the simulator additionally
// clamps to >= 1 and enforces link FIFO order.
type LatencyModel interface {
	// Delay returns the delay for the message that is assigned global
	// sequence number seq, over an edge of weight w, under the config
	// seed. It must be a pure function of its arguments: a message's delay
	// depends on its sequence number alone, not on the order draws happen
	// in, and the model keeps no stream state. This is the counter-based
	// discipline of workload.Zipf.
	Delay(w int64, seed int64, seq uint64) Time
	// Scale returns the model's time scale: the worst-case delay of a
	// message over a unit-weight edge. Costs measured under the model are
	// comparable to analytic unit-latency bounds after dividing by Scale.
	Scale() int64
	// Name identifies the model in experiment output.
	Name() string
}

// draw is the one hash every random latency draw reads: a splitmix64 step
// over (seed, seq).
func draw(seed int64, seq uint64) uint64 { return uint64(DeriveSeed(seed, int(seq))) }

type syncModel struct{ scale int64 }

// Synchronous returns the paper's synchronous model: a message over an
// edge of weight w always takes exactly w time units.
func Synchronous() LatencyModel { return syncModel{scale: 1} }

// SynchronousScaled returns a synchronous model where each weight unit
// costs scale time units. Useful for comparing against async runs that use
// the same scale.
func SynchronousScaled(scale int64) LatencyModel {
	if scale < 1 {
		panic("sim: latency scale must be >= 1")
	}
	return syncModel{scale: scale}
}

func (m syncModel) Delay(w int64, _ int64, _ uint64) Time { return w * m.scale }
func (m syncModel) Scale() int64                          { return m.scale }
func (m syncModel) Name() string                          { return "sync" }

type asyncUniform struct{ scale int64 }

// AsyncUniform returns the asynchronous model of Section 3.8 with delays
// scaled so the slowest message over an edge of weight w takes w·scale
// units: each message draws an integer delay in [1, w·scale] by hashing
// (seed, message seq). With scale >= 2 even unit-weight edges exhibit
// variable delays. (The modulo mapping carries a negligible bias for
// w·scale ≪ 2^64; exact reproducibility, not distributional purity, is
// the point.)
func AsyncUniform(scale int64) LatencyModel {
	if scale < 1 {
		panic("sim: latency scale must be >= 1")
	}
	return asyncUniform{scale: scale}
}

func (m asyncUniform) Delay(w int64, seed int64, seq uint64) Time {
	hi := w * m.scale
	if hi <= 1 {
		return 1
	}
	return 1 + Time(draw(seed, seq)%uint64(hi))
}
func (m asyncUniform) Scale() int64 { return m.scale }
func (m asyncUniform) Name() string { return "async-uniform" }

// AsyncCounter returns AsyncUniform(scale): every model's draws are
// seq-keyed, so a separate counter-keyed model has nothing left to add.
//
// Deprecated: use AsyncUniform.
func AsyncCounter(scale int64) LatencyModel { return AsyncUniform(scale) }

type asyncBimodal struct {
	scale    int64
	slowProb float64
}

// AsyncBimodal returns an adversarial-ish asynchronous model: most
// messages are fast (delay 1 per weight unit) but with probability
// slowProb a message takes the full w·scale. This stresses the protocol's
// tolerance to stragglers while keeping the worst case bounded. The
// slow/fast choice hashes (seed, message seq) like AsyncUniform.
func AsyncBimodal(scale int64, slowProb float64) LatencyModel {
	if scale < 1 {
		panic("sim: latency scale must be >= 1")
	}
	if !(slowProb >= 0 && slowProb <= 1) {
		panic("sim: slowProb must be in [0,1]")
	}
	return asyncBimodal{scale: scale, slowProb: slowProb}
}

func (m asyncBimodal) Delay(w int64, seed int64, seq uint64) Time {
	// The top 53 bits as a float in [0, 1), as math/rand's Float64 does.
	if float64(draw(seed, seq)>>11)/(1<<53) < m.slowProb {
		return w * m.scale
	}
	return w
}
func (m asyncBimodal) Scale() int64 { return m.scale }
func (m asyncBimodal) Name() string { return "async-bimodal" }
