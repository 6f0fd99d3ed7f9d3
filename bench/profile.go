package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the buckets of the self-time table: the repo's packages on
// the data path, the Go runtime split three ways, and the rest.
var layers = []string{
	"simnet", "netem", "nat", "pss", "nylon", "wire", "dedup", "wcl", "ppss", "crypt",
	"transport", "obs", "runtime.gc", "runtime.malloc", "runtime.other", "other",
}

// layerPrefixes is the one table that maps a function to its layer: the
// first prefix its fully qualified name starts with wins. Runtime
// functions are split further by layerOf.
var layerPrefixes = []struct{ prefix, layer string }{
	{"whisper/internal/transport", "transport"}, // before simnet: transport/simnet is the adapter
	{"whisper/internal/simnet.", "simnet"},
	{"container/heap.", "simnet"}, // the event queue is its only user
	{"whisper/internal/netem.", "netem"},
	{"whisper/internal/nat.", "nat"},
	{"whisper/internal/pss.", "pss"},
	{"whisper/internal/nylon.", "nylon"},
	{"whisper/internal/wire.", "wire"},
	{"whisper/internal/dedup.", "dedup"},
	{"whisper/internal/wcl.", "wcl"},
	{"whisper/internal/ppss.", "ppss"},
	{"whisper/internal/crypt.", "crypt"},
	{"crypto/", "crypt"},
	{"math/big.", "crypt"},
	{"vendor/golang.org/x/crypto/", "crypt"},
	{"whisper/internal/obs.", "obs"},
	{"runtime.", "runtime.other"},
	{"runtime/", "runtime.other"},
	{"internal/runtime/", "runtime.other"},
	{"internal/bytealg.", "runtime.other"},
	{"internal/cpu.", "runtime.other"},
}

// gcFuncs and mallocFuncs name the runtime entry points under which a
// sample is garbage collection or allocation whatever its leaf is
// (scanobject, findObject and the heapBits walkers all run below one of
// the collector's; memclr and the span allocators below mallocgc).
var (
	gcFuncs = []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.gcMarkDone",
		"runtime.gcMarkTermination", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart",
		"runtime.scanobject", "runtime.greyobject", "runtime.findObject", "runtime.markBits",
		"runtime.heapBits", "runtime.(*gcWork)", "runtime.gcWriteBarrier", "runtime.wbBufFlush",
		"runtime.(*sweepLocked).sweep", "runtime.(*mspan).typePointersOfUnchecked", "runtime.typePointers",
	}
	mallocFuncs = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
		"runtime.newarray", "runtime.makemap", "runtime.(*mcache)", "runtime.(*mcentral)",
	}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// layerOf buckets one profile sample given its stack, leaf first.
func layerOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	layer := "other"
	for _, e := range layerPrefixes {
		if strings.HasPrefix(stack[0], e.prefix) {
			layer = e.layer
			break
		}
	}
	if layer != "runtime.other" {
		return layer
	}
	for _, fn := range stack {
		if hasAnyPrefix(fn, gcFuncs) {
			return "runtime.gc"
		}
	}
	for _, fn := range stack {
		if hasAnyPrefix(fn, mallocFuncs) {
			return "runtime.malloc"
		}
	}
	return layer
}

// bucketProfile decodes a runtime/pprof CPU profile and sums its CPU
// nanoseconds per layer.
func bucketProfile(data []byte) (map[string]float64, error) {
	samples, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, s := range samples {
		out[layerOf(s.stack)] += float64(s.value)
	}
	return out, nil
}

type profSample struct {
	stack []string // function names, leaf first, inlined frames expanded
	value int64    // last sample value: CPU nanoseconds in a CPU profile
}

// parseProfile reads the subset of the pprof format (profile.proto,
// gzipped) that bucketing needs: samples, locations, functions and the
// string table. The standard library writes this format but keeps its
// reader internal.
func parseProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		val  int64
	}
	var (
		samples  []rawSample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]uint64{}   // function id -> string index
		strs     []string
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					if vals := appendVarints(nil, v, b); len(vals) > 0 {
						s.val = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{value: s.val}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errProto = errors.New("malformed protobuf")

// protoFields calls fn for every field of one protobuf message: v holds
// a varint field's value, b a length-delimited field's bytes.
func protoFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value
// when it came unpacked, all of b's when packed.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
