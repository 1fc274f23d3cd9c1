package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"time"

	"mpinet/internal/sim"
)

// hostInfo stamps every result with the machine it was measured on, so
// committed numbers read as a trajectory rather than a cross-host gate.
type hostInfo struct {
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// EngineCallNs is the calibration unit: host nanoseconds per event of
	// a self-rescheduling sim.Engine.Call chain.
	EngineCallNs float64 `json:"engine_call_ns"`
}

func fingerprint() hostInfo {
	return hostInfo{
		CPU:          cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		EngineCallNs: engineCallNs(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// chain is a handler that re-schedules itself until left runs out.
type chain struct {
	eng  *sim.Engine
	left int
}

func (c *chain) HandleEvent(int64, int64) {
	if c.left > 0 {
		c.left--
		c.eng.Call(1, c, 0, 0)
	}
}

// engineCallNs times Engine.Call dispatch through the public API: the
// median of several runs of a 200k-event chain.
func engineCallNs() float64 {
	const events = 200_000
	runs := make([]float64, 7)
	for i := range runs {
		e := sim.New()
		c := &chain{eng: e, left: events - 1}
		e.Call(1, c, 0, 0)
		start := time.Now()
		if err := e.Run(); err != nil {
			return 0
		}
		runs[i] = float64(time.Since(start).Nanoseconds()) / events
	}
	return median(runs)
}
