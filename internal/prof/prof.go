// Package prof gives a command the standard profiling flags:
// -cpuprofile, -memprofile and -trace, as `go test` spells them.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Flags holds the output paths the profiling flags were given.
type Flags struct {
	cpu, mem, trace string
}

// Register declares the profiling flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.cpu, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	fs.StringVar(&f.mem, "memprofile", "", "write a heap profile taken at the end of the run to this file (go tool pprof)")
	fs.StringVar(&f.trace, "trace", "", "write an execution trace of the run to this file (go tool trace)")
	return f
}

// Start begins the profiles that were asked for. The returned stop ends
// them and writes the files; the command calls it once, on every path
// that follows a successful Start, before it exits.
func (f *Flags) Start() (stop func() error, err error) {
	var stops []func() error
	stop = func() error {
		var first error
		for i := len(stops) - 1; i >= 0; i-- {
			if err := stops[i](); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	// begin starts one profile writing to path; what had started before
	// a failure is given up along with the run.
	begin := func(flag, path string, start func(*os.File) error, end func()) error {
		out, err := os.Create(path)
		if err == nil {
			if err = start(out); err != nil {
				out.Close()
			}
		}
		if err != nil {
			_ = stop()
			return fmt.Errorf("%s: %w", flag, err)
		}
		stops = append(stops, func() error {
			end()
			return out.Close()
		})
		return nil
	}
	if f.cpu != "" {
		err := begin("cpuprofile", f.cpu, func(out *os.File) error { return pprof.StartCPUProfile(out) }, pprof.StopCPUProfile)
		if err != nil {
			return nil, err
		}
	}
	if f.trace != "" {
		err := begin("trace", f.trace, func(out *os.File) error { return trace.Start(out) }, trace.Stop)
		if err != nil {
			return nil, err
		}
	}
	if f.mem != "" {
		stops = append(stops, func() error {
			out, err := os.Create(f.mem)
			if err != nil {
				return fmt.Errorf("memprofile: %w", err)
			}
			runtime.GC() // the profile reports what the last collection saw
			if err := pprof.WriteHeapProfile(out); err != nil {
				out.Close()
				return fmt.Errorf("memprofile: %w", err)
			}
			return out.Close()
		})
	}
	return stop, nil
}
