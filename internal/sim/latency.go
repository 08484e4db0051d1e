package sim

import "math/rand"

// LatencyModel maps an edge's nominal weight to a per-message delay.
// Implementations must return delays in [1, ∞); the simulator additionally
// clamps to >= 1 and enforces link FIFO order.
type LatencyModel interface {
	// Delay returns the delay for one message over an edge of weight w.
	Delay(w int64, rng *rand.Rand) Time
	// Scale returns the model's time scale: the worst-case delay of a
	// message over a unit-weight edge. Costs measured under the model are
	// comparable to analytic unit-latency bounds after dividing by Scale.
	Scale() int64
	// Name identifies the model in experiment output.
	Name() string
}

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

func (m syncModel) Delay(w int64, _ *rand.Rand) Time { return w * m.scale }
func (m syncModel) Scale() int64                     { return m.scale }
func (m syncModel) Name() string                     { return "sync" }

type asyncUniform struct{ scale int64 }

// AsyncUniform returns the asynchronous model of Section 3.8 with delays
// scaled so the slowest message over an edge of weight w takes w·scale
// units: each message independently draws an integer delay uniformly from
// [1, w·scale]. With scale >= 2 even unit-weight edges exhibit variable
// delays.
func AsyncUniform(scale int64) LatencyModel {
	if scale < 1 {
		panic("sim: latency scale must be >= 1")
	}
	return asyncUniform{scale: scale}
}

func (m asyncUniform) Delay(w int64, rng *rand.Rand) Time {
	hi := w * m.scale
	if hi <= 1 {
		return 1
	}
	return 1 + rng.Int63n(hi)
}
func (m asyncUniform) Scale() int64 { return m.scale }
func (m asyncUniform) Name() string { return "async-uniform" }

// CounterLatency is an optional LatencyModel extension for models whose
// per-message delay is a pure function of (edge weight, config seed,
// message sequence number) instead of a draw from a shared RNG stream.
// The draws therefore do not depend on the order an RNG stream is
// consumed in, only on the message's deterministic global sequence
// number, and the model keeps no stream state. This is the same
// counter-based discipline as workload.Zipf.
type CounterLatency interface {
	LatencyModel
	// DelayFor returns the delay for the message that will be (or was)
	// assigned global sequence number seq, over an edge of weight w,
	// under the given config seed. Must be a pure function of its
	// arguments with a result in [1, ∞).
	DelayFor(w int64, seed int64, seq uint64) Time
}

type asyncCounter struct{ scale int64 }

// AsyncCounter returns an asynchronous model with the same delay
// distribution shape as AsyncUniform — each message takes an integer
// delay in [1, w·scale], approximately uniform — but drawn by hashing
// (seed, message seq) with the splitmix64 counter discipline instead of
// consuming a serialized RNG stream, so a message's delay is a function
// of its sequence number alone, whatever order the draws happen in.
// (The modulo mapping carries a negligible bias for w·scale ≪ 2^64;
// exact reproducibility, not distributional purity, is the point.)
func AsyncCounter(scale int64) LatencyModel {
	if scale < 1 {
		panic("sim: latency scale must be >= 1")
	}
	return asyncCounter{scale: scale}
}

func (m asyncCounter) Delay(w int64, _ *rand.Rand) Time {
	// The simulator routes CounterLatency models through DelayFor; the
	// stream-based entry point cannot reproduce the counter draws.
	panic("sim: AsyncCounter delays are seq-keyed; use DelayFor (the simulator does this automatically)")
}

func (m asyncCounter) DelayFor(w int64, seed int64, seq uint64) Time {
	hi := w * m.scale
	if hi <= 1 {
		return 1
	}
	h := uint64(DeriveSeed(seed, int(seq)))
	return 1 + Time(h%uint64(hi))
}
func (m asyncCounter) Scale() int64 { return m.scale }
func (m asyncCounter) Name() string { return "async-counter" }

type asyncBimodal struct {
	scale    int64
	slowProb float64
}

// AsyncBimodal returns an adversarial-ish asynchronous model: most
// messages are fast (delay 1 per weight unit) but with probability
// slowProb a message takes the full w·scale. This stresses the protocol's
// tolerance to stragglers while keeping the worst case bounded.
func AsyncBimodal(scale int64, slowProb float64) LatencyModel {
	if scale < 1 {
		panic("sim: latency scale must be >= 1")
	}
	if slowProb < 0 || slowProb > 1 {
		panic("sim: slowProb must be in [0,1]")
	}
	return asyncBimodal{scale: scale, slowProb: slowProb}
}

func (m asyncBimodal) Delay(w int64, rng *rand.Rand) Time {
	if rng.Float64() < m.slowProb {
		return w * m.scale
	}
	return w
}
func (m asyncBimodal) Scale() int64 { return m.scale }
func (m asyncBimodal) Name() string { return "async-bimodal" }
