package trace

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/stabilize"
)

// ChaosLog records a failure/recovery episode: fault transitions
// (link/node down and up marks) interleaved with the self-stabilizing
// repair protocol's steps (region waves, grants, path-reversal token
// arrows). Its methods match the observer hooks of arrow.LoopConfig
// (FaultObserver, RepairObserver), so wiring it into a faulty closed
// loop is two field assignments; the simulator is single-threaded, so
// callbacks arrive in chronological order.
type ChaosLog struct {
	lines []string
}

// NewChaosLog returns an empty log.
func NewChaosLog() *ChaosLog { return &ChaosLog{} }

// OnFault records one liveness transition (use as a FaultObserver).
func (l *ChaosLog) OnFault(ev sim.FaultEvent) {
	switch ev.Kind {
	case sim.LinkDown:
		l.add(ev.At, fmt.Sprintf("x link v%d--v%d DOWN", ev.U, ev.V))
	case sim.LinkUp:
		l.add(ev.At, fmt.Sprintf("o link v%d--v%d up", ev.U, ev.V))
	case sim.NodeDown:
		l.add(ev.At, fmt.Sprintf("x node v%d DOWN", ev.U))
	case sim.NodeUp:
		l.add(ev.At, fmt.Sprintf("o node v%d up", ev.U))
	}
}

// OnRepair records one repair-protocol step (use as a RepairObserver).
func (l *ChaosLog) OnRepair(ev stabilize.RepairEvent) {
	switch ev.Kind {
	case stabilize.RepEpisode:
		l.add(ev.At, fmt.Sprintf("repair episode %d begins", ev.Episode))
	case stabilize.RepDecycle:
		l.add(ev.At, fmt.Sprintf("repair: v%d breaks facing arrow with v%d (becomes sink)", ev.Node, ev.Peer))
	case stabilize.RepRegion:
		l.add(ev.At, fmt.Sprintf("repair: v%d joins region of sink v%d", ev.Node, ev.Peer))
	case stabilize.RepGrant:
		l.add(ev.At, fmt.Sprintf("repair: sink v%d grants merge to boundary v%d", ev.Peer, ev.Node))
	case stabilize.RepToken:
		l.add(ev.At, fmt.Sprintf("repair token v%d ~> v%d (path reversal)", ev.Node, ev.Peer))
	case stabilize.RepMerge:
		l.add(ev.At, fmt.Sprintf("repair: region merged, sink v%d consumed", ev.Node))
	case stabilize.RepDone:
		l.add(ev.At, fmt.Sprintf("repair converged: unique sink v%d", ev.Node))
	}
}

func (l *ChaosLog) add(at sim.Time, text string) {
	l.lines = append(l.lines, fmt.Sprintf("t=%-5d %s", at, text))
}

// Render returns the chronological failure/recovery log, one event per
// line.
func (l *ChaosLog) Render() string {
	var b strings.Builder
	for _, line := range l.lines {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}
