package workload

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/queuing"
)

func TestOneShot(t *testing.T) {
	set := OneShot(20, 8, 1)
	if len(set) != 8 {
		t.Fatalf("|R| = %d, want 8", len(set))
	}
	seen := map[int32]bool{}
	for _, r := range set {
		if r.Time != 0 {
			t.Errorf("one-shot request at t=%d", r.Time)
		}
		if seen[int32(r.Node)] {
			t.Errorf("node %d requested twice", r.Node)
		}
		seen[int32(r.Node)] = true
	}
	if err := set.Validate(20); err != nil {
		t.Error(err)
	}
}

func TestOneShotRejectsOversubscription(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for k > n")
		}
	}()
	OneShot(3, 5, 1)
}

func TestSequentialSpacing(t *testing.T) {
	set := Sequential(10, 6, 25, 2)
	if len(set) != 6 {
		t.Fatalf("|R| = %d, want 6", len(set))
	}
	for i := 1; i < len(set); i++ {
		if set[i].Time-set[i-1].Time != 25 {
			t.Errorf("gap %d between requests %d,%d, want 25",
				set[i].Time-set[i-1].Time, i-1, i)
		}
	}
}

func TestPoissonHorizonAndDeterminism(t *testing.T) {
	a := Poisson(12, 0.5, 100, 7)
	b := Poisson(12, 0.5, 100, 7)
	if len(a) != len(b) {
		t.Fatal("same seed, different size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different requests")
		}
	}
	for _, r := range a {
		if r.Time < 0 || r.Time >= 100 {
			t.Errorf("request outside horizon: %v", r)
		}
	}
	if err := a.Validate(12); err != nil {
		t.Error(err)
	}
}

func TestPoissonRejectsBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Poisson(5, 0, 10, 1)
}

func TestBurstyStructure(t *testing.T) {
	set := Bursty(16, 5, 3, 100, 4)
	if len(set) != 15 {
		t.Fatalf("|R| = %d, want 15", len(set))
	}
	// Every request falls inside its burst window [b*100, b*100+5).
	for _, r := range set {
		inWindow := false
		for b := 0; b < 3; b++ {
			base := int64(b) * 100
			if r.Time >= base && r.Time < base+5 {
				inWindow = true
			}
		}
		if !inWindow {
			t.Errorf("request %v outside any burst window", r)
		}
	}
}

func TestHotspotFraction(t *testing.T) {
	set := Hotspot(50, 400, 0.7, 1000, 9)
	counts := map[int32]int{}
	for _, r := range set {
		counts[int32(r.Node)]++
	}
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	// The hot node should receive roughly 70% (+ noise); require > 50%.
	if maxCount < 200 {
		t.Errorf("hottest node got %d of 400 requests, want > 200", maxCount)
	}
}

func TestHotspotValidatesFraction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Hotspot(5, 10, 1.5, 10, 1)
}

// TestConstructorInputValidation: every generator rejects degenerate
// parameters with a descriptive workload panic instead of an opaque
// failure deep inside the RNG (the original bug: Hotspot with
// horizon <= 0 reached rand.Int63n(0)) or a silently empty set.
func TestConstructorInputValidation(t *testing.T) {
	cases := []struct {
		name string
		call func()
	}{
		{"OneShot/n=0", func() { OneShot(0, 0, 1) }},
		{"OneShot/k<0", func() { OneShot(5, -1, 1) }},
		{"OneShot/k>n", func() { OneShot(3, 5, 1) }},
		{"Sequential/n=0", func() { Sequential(0, 4, 10, 1) }},
		{"Sequential/count<0", func() { Sequential(5, -1, 10, 1) }},
		{"Sequential/gap<0", func() { Sequential(5, 4, -1, 1) }},
		{"Poisson/n=0", func() { Poisson(0, 1, 10, 1) }},
		{"Poisson/rate=0", func() { Poisson(5, 0, 10, 1) }},
		{"Poisson/rate<0", func() { Poisson(5, -0.5, 10, 1) }},
		{"Poisson/horizon<0", func() { Poisson(5, 1, -1, 1) }},
		{"Bursty/n=0", func() { Bursty(0, 2, 2, 10, 1) }},
		{"Bursty/burstSize=0", func() { Bursty(5, 0, 2, 10, 1) }},
		{"Bursty/bursts<0", func() { Bursty(5, 2, -1, 10, 1) }},
		{"Bursty/burstGap<0", func() { Bursty(5, 2, 2, -1, 1) }},
		{"Hotspot/n=0", func() { Hotspot(0, 4, 0.5, 10, 1) }},
		{"Hotspot/count<0", func() { Hotspot(5, -1, 0.5, 10, 1) }},
		{"Hotspot/hotFrac<0", func() { Hotspot(5, 4, -0.1, 10, 1) }},
		{"Hotspot/hotFrac>1", func() { Hotspot(5, 4, 1.5, 10, 1) }},
		{"Hotspot/horizon=0", func() { Hotspot(5, 4, 0.5, 0, 1) }},
		{"Hotspot/horizon<0", func() { Hotspot(5, 4, 0.5, -3, 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("expected a validation panic")
				}
				if msg, ok := r.(string); !ok || !strings.HasPrefix(msg, "workload: ") {
					t.Fatalf("panic %v is not a descriptive workload error", r)
				}
			}()
			tc.call()
		})
	}
}

// TestConstructorBoundaryInputs: the smallest legal parameters build
// without panicking (empty sets are fine, opaque failures are not).
func TestConstructorBoundaryInputs(t *testing.T) {
	cases := []struct {
		name string
		call func() int
	}{
		{"OneShot/k=0", func() int { return len(OneShot(1, 0, 1)) }},
		{"OneShot/k=n", func() int { return len(OneShot(4, 4, 1)) }},
		{"Sequential/count=0", func() int { return len(Sequential(1, 0, 0, 1)) }},
		{"Poisson/horizon=0", func() int { return len(Poisson(1, 1, 0, 1)) }},
		{"Bursty/bursts=0", func() int { return len(Bursty(1, 1, 0, 0, 1)) }},
		{"Hotspot/count=0", func() int { return len(Hotspot(1, 0, 0, 1, 1)) }},
		{"Hotspot/horizon=1", func() int { return len(Hotspot(3, 7, 1, 1, 1)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.call(); got < 0 {
				t.Fatalf("impossible size %d", got)
			}
		})
	}
}

// mustLowerBound is LowerBound on parameters the test knows are valid.
func mustLowerBound(t *testing.T, logD, k int) LowerBoundInstance {
	t.Helper()
	inst, err := LowerBound(logD, k)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestLowerBoundInstanceShape(t *testing.T) {
	inst := mustLowerBound(t, 3, 2)
	if inst.D != 8 {
		t.Errorf("D = %d, want 8", inst.D)
	}
	if inst.K != 2 {
		t.Errorf("K = %d, want 2", inst.K)
	}
	if inst.Root != 0 {
		t.Errorf("root = %d, want v0", inst.Root)
	}
	// The seed request (vD, k) must be present.
	found := false
	for _, r := range inst.Set {
		if int(r.Node) == 8 && r.Time == 2 {
			found = true
		}
		if int(r.Node) < 0 || int(r.Node) > 8 {
			t.Errorf("request outside path: %v", r)
		}
		if r.Time < 0 || r.Time > 2 {
			t.Errorf("request outside time range: %v", r)
		}
	}
	if !found {
		t.Error("seed request (v8, t=2) missing")
	}
	// Padding requests at both endpoints for t = 0..k-1.
	for tt := int64(0); tt < 2; tt++ {
		for _, node := range []int{0, 8} {
			ok := false
			for _, r := range inst.Set {
				if int(r.Node) == node && r.Time == tt {
					ok = true
				}
			}
			if !ok {
				t.Errorf("padding request (v%d, t=%d) missing", node, tt)
			}
		}
	}
	if err := inst.Set.Validate(9); err != nil {
		t.Error(err)
	}
}

func TestLowerBoundNoDuplicates(t *testing.T) {
	prop := func(s uint8) bool {
		logD := 2 + int(s%6)
		k := DefaultK(1 << logD)
		inst := mustLowerBound(t, logD, k)
		seen := map[[2]int64]bool{}
		for _, r := range inst.Set {
			key := [2]int64{int64(r.Node), r.Time}
			if seen[key] {
				return false
			}
			seen[key] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDefaultK(t *testing.T) {
	cases := []struct{ d, want int }{
		{2, 2}, {8, 2}, {64, 2}, {1 << 12, 2}, {1 << 20, 4},
	}
	for _, tc := range cases {
		if k := DefaultK(tc.d); k != tc.want {
			t.Errorf("DefaultK(%d) = %d, want %d", tc.d, k, tc.want)
		}
		if DefaultK(tc.d)%2 != 0 {
			t.Errorf("DefaultK(%d) must be even", tc.d)
		}
	}
}

func TestGeneratorsProduceValidSets(t *testing.T) {
	prop := func(seed int64) bool {
		n := 8 + int(seed%9+9)%9
		sets := []queuing.Set{
			OneShot(n, n/2, seed),
			Sequential(n, 10, 5, seed),
			Poisson(n, 0.3, 50, seed),
			Bursty(n, 4, 3, 20, seed),
			Hotspot(n, 15, 0.5, 40, seed),
		}
		for _, s := range sets {
			if s.Validate(n) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
