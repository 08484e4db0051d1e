package stats

import (
	"encoding/binary"
	"math"
	"math/big"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// naiveHist is the oracle FuzzHistogramMoments holds Histogram against:
// every value kept, Σv and Σv² as big integers, nothing bucketed.
type naiveHist struct {
	vals    []int64
	sum, sq big.Int
}

func (r *naiveHist) record(v int64) {
	v = max(v, 0)
	r.vals = append(r.vals, v)
	b := big.NewInt(v)
	r.sum.Add(&r.sum, b)
	r.sq.Add(&r.sq, b.Mul(b, b))
}

// sumSqCap is Histogram's saturation point for Σv², 2^128−1.
var sumSqCap = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 128), big.NewInt(1))

// u128 splits a non-negative integer below 2^128 into its 64-bit words.
func u128(x *big.Int) (hi, lo uint64) {
	var buf [16]byte
	x.FillBytes(buf[:])
	return binary.BigEndian.Uint64(buf[:8]), binary.BigEndian.Uint64(buf[8:])
}

// want is the Dist the histogram must report for r's values: min and max
// of the values, the mean and the population standard deviation of the
// exact sums (Σv² capped at 2^128−1) by the formulas Histogram documents,
// and each quantile as the upper edge of the bucket holding the order
// statistic of its rank, clamped to [min, max].
func (r *naiveHist) want() Dist {
	n := int64(len(r.vals))
	if n == 0 {
		return Dist{}
	}
	sorted := slices.Sorted(slices.Values(r.vals))
	lo, hi := sorted[0], sorted[n-1]
	quantile := func(p float64) int64 {
		rank := min(max(int64(math.Ceil(p/100*float64(n))), 1), n)
		return min(max(histUpper(histIndex(sorted[rank-1])), lo), hi)
	}
	sq := new(big.Int).Set(&r.sq)
	if sq.Cmp(sumSqCap) > 0 {
		sq.Set(sumSqCap)
	}
	sumHi, sumLo := u128(&r.sum)
	num := new(big.Int).Mul(sq, big.NewInt(n))
	num.Sub(num, new(big.Int).Mul(&r.sum, &r.sum))
	std := 0.0
	if num.Sign() > 0 {
		f, _ := new(big.Float).SetInt(num).Float64()
		std = math.Sqrt(f / (float64(n) * float64(n)))
	}
	return Dist{
		Count: n, Mean: u128Float(sumHi, sumLo) / float64(n), Std: std,
		Min: lo, P50: quantile(50), P90: quantile(90), P99: quantile(99), P999: quantile(99.9), Max: hi,
	}
}

// histEdges are the values a script names by index: both ends of the
// exact buckets, the first bucketed values, 2^62 (a few of which
// saturate Σv²), the largest int64 and negative values, which are
// recorded as 0.
var histEdges = [8]int64{0, 31, 32, 33, 1 << 62, math.MaxInt64, -1, math.MinInt64}

// histOp is one decoded step of a script: record v into A, or into B.
type histOp struct {
	v    int64
	toB  bool
	edge bool // v is histEdges[i]
}

// histOps decodes a byte script. Each op's leading byte picks the
// recorder — bit 7 set: B, else A — and, in bits 5–6, the value:
//
//	0  an exact bucket, the byte's low five bits (0 to 31)
//	1  histEdges[b&7]
//	2  32 plus the next two bytes (a value bucketed in the low octaves)
//	3  the next eight bytes as an int64 (negative half the time)
//
// A trailing op whose bytes are cut short is dropped.
func histOps(script []byte) []histOp {
	var ops []histOp
	for len(script) > 0 {
		op := script[0]
		script = script[1:]
		o := histOp{toB: op&0x80 != 0}
		switch op >> 5 & 3 {
		case 0:
			o.v = int64(op & 31)
		case 1:
			o.v, o.edge = histEdges[op&7], true
		case 2:
			if len(script) < 2 {
				return ops
			}
			o.v = 32 + int64(binary.LittleEndian.Uint16(script))
			script = script[2:]
		case 3:
			if len(script) < 8 {
				return ops
			}
			o.v = int64(binary.LittleEndian.Uint64(script))
			script = script[8:]
		}
		ops = append(ops, o)
	}
	return ops
}

// histScript replays one byte script (see histOps). Every value also goes
// to a serial histogram. At the end A and B are each checked against
// their oracle, B is merged into A, and A must match the oracle of every
// value and the serial histogram bit for bit.
func histScript(t *testing.T, script []byte) {
	t.Helper()
	var a, b, serial Histogram
	var na, nb, nall naiveHist
	for _, o := range histOps(script) {
		h, r := &a, &na
		if o.toB {
			h, r = &b, &nb
		}
		h.Record(o.v)
		r.record(o.v)
		serial.Record(o.v)
		nall.record(o.v)
	}
	check := func(name string, h *Histogram, r *naiveHist) {
		t.Helper()
		want := r.want()
		if got := h.Snapshot(); got != want {
			t.Fatalf("%s: snapshot %+v, want %+v", name, got, want)
		}
		if h.Min() != want.Min || h.Max() != want.Max || h.Mean() != want.Mean || h.Std() != want.Std {
			t.Fatalf("%s: min %d max %d mean %v std %v, want %d %d %v %v",
				name, h.Min(), h.Max(), h.Mean(), h.Std(), want.Min, want.Max, want.Mean, want.Std)
		}
	}
	check("A", &a, &na)
	check("B", &b, &nb)
	check("serial", &serial, &nall)
	a.Merge(&b)
	check("A after merging B", &a, &nall)
	if a.Snapshot() != serial.Snapshot() {
		t.Fatalf("merged %+v, serial %+v", a.Snapshot(), serial.Snapshot())
	}
}

// FuzzHistogramMoments holds Histogram against a recorder that keeps
// every value: whatever mix of exact-bucket values (below 32) and larger
// ones is recorded, split between two histograms and merged, every
// Snapshot, Min, Max, Mean and Std equals the one computed from all the
// values at once. Seeds are the committed corpus under testdata/fuzz.
func FuzzHistogramMoments(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		histScript(t, script)
	})
}

// TestHistogramMomentsCorpus keeps the committed corpus covering both
// sides of the exact buckets' edge: a stream of exact-bucket values only, a
// stream of larger values only, a mixed one, every edge value, and a
// merge of two non-empty histograms.
func TestHistogramMomentsCorpus(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzHistogramMoments/*")
	if err != nil || len(files) < 5 {
		t.Fatalf("committed corpus has %d scripts (err %v), want at least 5", len(files), err)
	}
	var allSmall, allLarge, mixed, merged bool
	edges := map[int64]bool{}
	for _, name := range files {
		script := readCorpus(t, name)
		histScript(t, script)
		var small, large, inA, inB bool
		for _, o := range histOps(script) {
			if o.edge {
				edges[o.v] = true
			}
			if o.v < histSubCnt {
				small = true
			} else {
				large = true
			}
			inA, inB = inA || !o.toB, inB || o.toB
		}
		allSmall = allSmall || small && !large
		allLarge = allLarge || large && !small
		mixed = mixed || small && large
		merged = merged || inA && inB
	}
	if !allSmall || !allLarge || !mixed || !merged || len(edges) != len(histEdges) {
		t.Errorf("corpus covers all-small %v, all-large %v, mixed %v, a merge of two %v, %d of %d edge values",
			allSmall, allLarge, mixed, merged, len(edges), len(histEdges))
	}
}

// readCorpus returns the []byte argument of a committed corpus file.
func readCorpus(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	body, ok := strings.CutPrefix(string(data), "go test fuzz v1\n[]byte(")
	if !ok {
		t.Fatalf("%s: not a go test fuzz v1 file with one []byte", name)
	}
	arg, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(body), ")"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(arg)
}
