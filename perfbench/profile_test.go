package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// spin burns CPU long enough for the profiler to sample it.
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestParseProfileReadsRuntimeProfiles(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()

	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		total += s.ns
		for _, f := range s.stack {
			if strings.HasSuffix(f.fn, ".spin") {
				if layerOf([]frame{f}) != "bench" {
					t.Errorf("%s in %s is not charged to bench", f.fn, f.file)
				}
				inSpin += s.ns
				break
			}
		}
	}
	if total == 0 || inSpin < total/2 {
		t.Fatalf("spin holds %d of %d profiled ns, want most", inSpin, total)
	}
}

func TestLayerOf(t *testing.T) {
	sim := func(fn, file string) frame {
		return frame{"mpinet/internal/sim." + fn, "mpinet/internal/sim/" + file}
	}
	for _, tc := range []struct {
		want  string
		stack []frame
	}{
		{"sim.handoff", []frame{{"runtime.chanrecv", "runtime/chan.go"}, sim("(*Proc).park", "proc.go")}},
		{"sim.heap", []frame{sim("eventHeap.siftDown", "engine.go"), sim("(*Engine).runSerial", "engine.go")}},
		{"sim.heap", []frame{sim("(*Engine).enqueue", "engine.go")}},
		{"sim.dispatch", []frame{sim("(*Engine).runSerial", "engine.go")}},
		{"sim.shard", []frame{sim("(*Sharded).commit", "shard.go")}},
		{"fabric", []frame{{"runtime.mallocgc", "runtime/malloc.go"}, {"mpinet/internal/fabric.(*xfer).HandleEvent", "mpinet/internal/fabric/fabric.go"}, sim("(*Engine).runSerial", "engine.go")}},
		{"runtime.gc", []frame{{"runtime.gcAssistAlloc", "runtime/mgcmark.go"}, {"runtime.mallocgc", "runtime/malloc.go"}, {"mpinet/internal/mpi.(*procState).newRequest", "mpinet/internal/mpi/request.go"}}},
		{"bench", []frame{{"main.(*traffic).body.func1", "mpinet/perfbench/clos.go"}}},
		{"mpinet.other", []frame{{"mpinet/internal/units.Time.Seconds", "mpinet/internal/units/units.go"}}},
		{"runtime.sched", []frame{{"runtime.futex", "runtime/sys_linux_amd64.s"}, {"runtime.findRunnable", "runtime/proc.go"}, {"runtime.schedule", "runtime/proc.go"}}},
		{"runtime.other", []frame{{"runtime.sysmon", "runtime/proc.go"}}},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}
