package trace

import (
	"strings"
	"testing"

	"repro/internal/arrow"
	"repro/internal/graph"
	"repro/internal/queuing"
	"repro/internal/tree"
)

func runTraced(t *testing.T) (*Recorder, *arrow.Result) {
	t.Helper()
	tr, err := tree.FromParents(0,
		[]graph.NodeID{0, 0, 0, 1, 1, 2},
		[]graph.Weight{0, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	set := queuing.NewSet([]queuing.Request{
		{Node: 3, Time: 0},
		{Node: 5, Time: 0},
	})
	res, err := arrow.Run(tr, set, arrow.Options{Root: 0, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	return rec, res
}

func TestRecorderCapturesAllPhases(t *testing.T) {
	rec, res := runTraced(t)
	counts := map[EventKind]int{}
	for _, e := range rec.Events() {
		counts[e.Kind]++
	}
	if counts[EvInit] != 1 {
		t.Errorf("init events = %d, want 1", counts[EvInit])
	}
	if counts[EvRequest] != 2 {
		t.Errorf("request events = %d, want 2", counts[EvRequest])
	}
	if counts[EvComplete] != 2 {
		t.Errorf("complete events = %d, want 2", counts[EvComplete])
	}
	if int64(counts[EvSend]) != res.TotalHops {
		t.Errorf("send events = %d, want total hops %d", counts[EvSend], res.TotalHops)
	}
	// Every send is matched by a flip at its receiving node, plus flips
	// at the two initiators.
	if counts[EvFlip] != counts[EvSend]+2 {
		t.Errorf("flip events = %d, want sends+2 = %d", counts[EvFlip], counts[EvSend]+2)
	}
}

func TestRenderLogMentionsProtocolSteps(t *testing.T) {
	rec, _ := runTraced(t)
	log := rec.RenderLog()
	for _, want := range []string{
		"init: all arrows point toward root v0",
		"issues request",
		"--queue(",
		"flips arrow",
		"queued behind ⊥ (virtual root)",
		"queued behind r",
	} {
		if !strings.Contains(log, want) {
			t.Errorf("log missing %q:\n%s", want, log)
		}
	}
}

func TestRenderArrowsMarksSink(t *testing.T) {
	out := RenderArrows([]graph.NodeID{0, 0, 1})
	if !strings.Contains(out, "v0   = sink") {
		t.Errorf("sink not marked:\n%s", out)
	}
	if !strings.Contains(out, "v2   -> v1") {
		t.Errorf("pointer not rendered:\n%s", out)
	}
}

func TestSnapshotsTrackPointerEvolution(t *testing.T) {
	rec, res := runTraced(t)
	snaps := rec.RenderSnapshots()
	if !strings.Contains(snaps, "step 0:") {
		t.Error("missing initial snapshot")
	}
	// The final snapshot must agree with the run's final links.
	events := rec.Events()
	flips := 0
	for _, e := range events {
		if e.Kind == EvFlip {
			flips++
		}
	}
	if !strings.Contains(snaps, "step "+itoa(flips)+":") {
		t.Errorf("missing final snapshot step %d", flips)
	}
	finalSink := res.FinalSink
	if !strings.Contains(snaps, "v"+itoa(int(finalSink))+"   = sink") {
		t.Errorf("final snapshot should show v%d as sink", finalSink)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var digits []byte
	for v > 0 {
		digits = append([]byte{byte('0' + v%10)}, digits...)
		v /= 10
	}
	return string(digits)
}

func TestEventKindStrings(t *testing.T) {
	for kind, want := range map[EventKind]string{
		EvInit: "init", EvRequest: "request", EvSend: "send",
		EvFlip: "flip", EvComplete: "complete",
	} {
		if kind.String() != want {
			t.Errorf("EventKind(%d).String() = %q, want %q", int(kind), kind.String(), want)
		}
	}
	if EventKind(99).String() == "" {
		t.Error("unknown kind should stringify")
	}
}

// Len returns the number of recorded lines.
func (l *ChaosLog) Len() int { return len(l.lines) }
