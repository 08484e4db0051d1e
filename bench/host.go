package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// fingerprint identifies the machine and build a result document came
// from, so wall-clock numbers from different hosts are never compared
// as if they were one series.
type fingerprint struct {
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	CPUModel      string  `json:"cpu_model"`
	CalibrationNS float64 `json:"calibration_ns"`
	Commit        string  `json:"commit"`
}

// maxProcs caps GOMAXPROCS: the benchmark is sized for a 2-core host and
// never runs more than two load goroutines, drain workers or sweep
// workers, so more than four Ps only adds scheduler noise.
const maxProcs = 4

// minComparableProcs is the core count below which drain-parallel and
// paper-grid cannot run their two workers in parallel: their numbers
// would measure time slicing, not the code.
const minComparableProcs = 2

func takeFingerprint() fingerprint {
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(min(nproc, maxProcs))
	return fingerprint{
		NProc:         nproc,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		CPUModel:      cpuModel(),
		CalibrationNS: calibrate(),
		Commit:        vcsRevision(),
	}
}

func (f fingerprint) comparable() bool { return f.NProc >= minComparableProcs }

// cpuModel reads the first "model name" of /proc/cpuinfo; hosts without
// one report "unknown" rather than failing the run.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// vcsRevision is the commit the binary was built from, as stamped by the
// go tool; a checkout without git metadata reports "unknown".
func vcsRevision() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// calibrationIters fixes the calibration loop's length: long enough
// (~50 ms) that timer granularity is irrelevant, short enough to run
// three times in every invocation.
const calibrationIters = 1 << 25

// sink keeps results the benchmark computes only to time them alive.
var sink uint64

// calibrate times a fixed xorshift loop — pure integer ALU work with no
// memory traffic — and returns the median of three runs in nanoseconds.
// Dividing two hosts' wall-clock numbers by their calibration scores
// gives a first-order normalisation of single-core speed.
func calibrate() float64 {
	var runs []float64
	for r := 0; r < 3; r++ {
		x := uint64(0x9E3779B97F4A7C15)
		start := time.Now()
		for i := 0; i < calibrationIters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		runs = append(runs, float64(time.Since(start).Nanoseconds()))
		sink += x
	}
	return median(runs)
}

// usage is one reading of the process's cumulative resource counters.
type usage struct {
	userS      float64
	sysS       float64
	totalAlloc uint64
	heapSys    uint64
	numGC      uint32
	pauseNS    uint64
}

// readUsage snapshots rusage and the Go heap counters. ReadMemStats
// stops the world, so callers read it outside the interval they time.
func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer; a zero
	// reading would only zero the CPU metrics.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		userS:      tvSeconds(ru.Utime),
		sysS:       tvSeconds(ru.Stime),
		totalAlloc: ms.TotalAlloc,
		heapSys:    ms.HeapSys,
		numGC:      ms.NumGC,
		pauseNS:    ms.PauseTotalNs,
	}
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)*1e-6
}

// cost is the resource delta of one timed interval. wallS is stamped by
// measure, tight around the timed call, so the counter reads themselves
// stay outside it.
type cost struct {
	wallS    float64
	userS    float64
	sysS     float64
	allocB   uint64
	heapSys  uint64
	gcCycles uint32
	pauseNS  uint64
}

func (u usage) since(start usage) cost {
	return cost{
		userS:    u.userS - start.userS,
		sysS:     u.sysS - start.sysS,
		allocB:   u.totalAlloc - start.totalAlloc,
		heapSys:  u.heapSys,
		gcCycles: u.numGC - start.numGC,
		pauseNS:  u.pauseNS - start.pauseNS,
	}
}

func (c cost) cpuS() float64 { return c.userS + c.sysS }

// measure runs fn and returns what it cost the process.
func measure(fn func() error) (cost, error) {
	before := readUsage()
	start := time.Now()
	err := fn()
	wall := time.Since(start)
	c := readUsage().since(before)
	c.wallS = wall.Seconds()
	return c, err
}
