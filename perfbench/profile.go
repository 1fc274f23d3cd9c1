package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// A CPU profile as runtime/pprof writes it: a gzipped profile.proto message.
// The benchmark needs only each sample's stack (function name and file per
// frame, innermost first) and its CPU nanoseconds, so it decodes exactly
// those fields instead of depending on the pprof library.

type frame struct{ fn, file string }

type sample struct {
	stack []frame
	ns    int64
}

// Field numbers of profile.proto (github.com/google/pprof/proto/profile.proto).
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profStrings  = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4

	lineFunction = 1

	functionID   = 1
	functionName = 2
	functionFile = 4
)

// parseProfile decodes a gzipped CPU profile into samples. The CPU time of a
// sample is its last value (runtime/pprof writes [count, nanoseconds]).
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	type function struct{ name, file int64 }
	var (
		strs    []string
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcs   = map[uint64]function{}
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case profStrings:
			strs = append(strs, string(b))
		case profSample:
			var s rawSample
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case sampleLocation:
					return appendVarints(&s.locs, wire, v, b)
				case sampleValue:
					var u []uint64
					if err := appendVarints(&u, wire, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(b, func(num int, wire int, v uint64, b []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case profFunction:
			var id uint64
			var f function
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					f.name = int64(v)
				case functionFile:
					f.file = int64(v)
				}
				return nil
			})
			funcs[id] = f
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var st []frame
		for _, loc := range s.locs {
			for _, fid := range locs[loc] {
				f := funcs[fid]
				st = append(st, frame{fn: str(f.name), file: str(f.file)})
			}
		}
		out = append(out, sample{stack: st, ns: s.values[len(s.values)-1]})
	}
	return out, nil
}

// eachField walks the top-level fields of one protobuf message, handing
// varint fields their value and length-delimited fields their bytes.
func eachField(b []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// Layers a CPU sample can be charged to, in report order. Each module
// package is one layer, except internal/sim, which is split by file so that
// proc handoff, the event heap, the dispatch loop and the PDES window
// scheduler show separately.
var profileLayers = []string{
	"sim.handoff", "sim.heap", "sim.dispatch", "sim.shard", "sim.other",
	"fabric", "verbs", "gm", "elan", "dev", "mpi", "shmem", "memreg", "bus",
	"metrics", "msgtrace", "trace", "faults", "rail", "cluster",
	"experiments", "apps", "microbench", "lowlevel", "report", "parallel",
	"mpinet.other", "bench", "runtime.gc", "runtime.sched", "runtime.other",
}

const modulePrefix = "mpinet/"

// layerOf charges one sample to a layer:
//   - garbage collection (background marking, assists, sweeping, write
//     barriers) anywhere on the stack → runtime.gc;
//   - otherwise the innermost frame of this module names the layer, so the
//     runtime work a layer calls (channel operations, allocation) is its own;
//   - stacks with no module frame are the scheduler (switching goroutines,
//     finding work, idling threads) or other runtime housekeeping.
func layerOf(stack []frame) string {
	for _, f := range stack {
		if isGC(f.fn) {
			return "runtime.gc"
		}
	}
	for _, f := range stack {
		if l := moduleLayer(f); l != "" {
			return l
		}
	}
	for _, f := range stack {
		if isSched(f.fn) {
			return "runtime.sched"
		}
	}
	return "runtime.other"
}

func moduleLayer(f frame) string {
	if strings.HasPrefix(f.fn, "main.") || strings.HasPrefix(f.fn, modulePrefix+"perfbench.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(f.fn, modulePrefix+"internal/")
	if !ok {
		if strings.HasPrefix(f.fn, modulePrefix) || strings.HasPrefix(f.fn, "mpinet.") {
			return "mpinet.other"
		}
		return ""
	}
	pkg, name, _ := strings.Cut(rest, ".")
	if pkg == "sim" {
		switch path.Base(f.file) {
		case "proc.go":
			return "sim.handoff"
		case "shard.go", "cross.go":
			return "sim.shard"
		case "engine.go":
			if strings.HasPrefix(name, "eventHeap.") || strings.HasPrefix(name, "(*eventHeap).") ||
				name == "lessEv" || name == "(*Engine).enqueue" {
				return "sim.heap"
			}
			return "sim.dispatch"
		}
		return "sim.other"
	}
	for _, l := range profileLayers {
		if l == pkg {
			return l
		}
	}
	return "mpinet.other"
}

func isGC(fn string) bool {
	for _, p := range []string{
		"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.markroot", "runtime.scanobject", "runtime.scanstack", "runtime.wbBuf",
		"runtime.(*gcWork)", "runtime.(*gcControllerState)", "runtime.(*mheap).reclaim",
		"runtime.GC",
	} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

func isSched(fn string) bool {
	switch fn {
	case "runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall",
		"runtime.goschedImpl", "runtime.gopark", "runtime.goready", "runtime.ready",
		"runtime.execute", "runtime.stealWork", "runtime.stopm", "runtime.startm",
		"runtime.wakep", "runtime.goexit0", "runtime.mstart", "runtime.mstart1",
		"runtime.notesleep", "runtime.notewakeup", "runtime.handoffp":
		return true
	}
	return false
}
