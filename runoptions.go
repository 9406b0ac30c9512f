package hpn

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"slices"
)

// RunOptions is the observability wiring the hpnsim and hpnbench CLIs
// share: the eight output flags, the telemetry hub they ask for, and the
// writing of every requested output when the run ends. It is the one
// definition of what each flag does, so the two drivers cannot drift.
//
// A driver binds the flags, calls Start after parsing, builds the hub with
// NewHub, and ends through Finish (run completed) or Exit (run failed).
// Both stop the CPU profile, so it is flushed on every exit path.
type RunOptions struct {
	Trace      string // Chrome trace-event JSON file
	Metrics    string // Prometheus-text metrics file
	Inband     string // artifact directory; enables in-band path telemetry
	Health     string // artifact directory; enables fabric health monitoring
	Prof       string // artifact directory; enables engine self-profiling
	Memo       string // iteration memoization: "on" or "off"
	CPUProfile string // pprof CPU profile of the whole process
	MemProfile string // pprof heap profile written at exit

	prog     string // message prefix: the CLI's name
	cpu      *os.File
	hub      *TelemetryHub
	finished bool
}

// UsageError marks a bad flag value; Exit maps it to status 2, every other
// error to status 1.
type UsageError struct{ Err error }

func (e *UsageError) Error() string { return e.Err.Error() }
func (e *UsageError) Unwrap() error { return e.Err }

// Usagef formats a UsageError.
func Usagef(format string, args ...any) error {
	return &UsageError{fmt.Errorf(format, args...)}
}

// Bind registers the eight observability flags on fs. prog prefixes the
// messages the options print.
func (o *RunOptions) Bind(fs *flag.FlagSet, prog string) {
	o.prog = prog
	fs.StringVar(&o.Trace, "trace", "", "write a Chrome trace-event JSON (chrome://tracing, Perfetto; one trace process per cluster) to this file")
	fs.StringVar(&o.Metrics, "metrics", "", "write Prometheus-text metrics to this file")
	fs.StringVar(&o.Inband, "inband", "", "enable in-band path telemetry on every cluster; write the per-hop inband.tsv/json (and the other registry artifacts) into this directory")
	fs.StringVar(&o.Health, "health", "", "enable online fabric health monitoring on every cluster; write the incidents.tsv/json causal timelines (render with hpndoctor) into this directory")
	fs.StringVar(&o.Memo, "memo", "off", "iteration memoization on every cluster: on | off (fast-forward repeated steady-state iterations; disables periodic sampling; composes with sharded runs)")
	fs.StringVar(&o.Prof, "prof", "", "enable engine self-profiling on every cluster; write prof.tsv/json (render with hpnprof) and flight.tsv into this directory")
	fs.StringVar(&o.CPUProfile, "cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	fs.StringVar(&o.MemProfile, "memprofile", "", "write a pprof heap profile at exit to this file")
}

// Start starts the CPU profile, then validates -memo. Call it once the
// flags are parsed; from then on, end the process through Finish or Exit.
func (o *RunOptions) Start() error {
	if o.CPUProfile != "" {
		f, err := os.Create(o.CPUProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		o.cpu = f
	}
	if o.Memo != "on" && o.Memo != "off" {
		return Usagef("-memo must be on or off, got %q", o.Memo)
	}
	return nil
}

// NewHub installs the default telemetry hub the flags ask for and returns
// it, or returns nil when no flag asks for one. base carries the driver's
// own settings (collector caps); counters asks for a hub even without an
// output flag, for a driver that reads the registry's counters itself.
// The periodic sampler runs only for the outputs that carry its series
// (-trace, -metrics, -inband, -health): the self-profiler needs no ticks,
// and a perf measurement should not pay for sampling nobody asked for.
func (o *RunOptions) NewHub(base TelemetryOptions, counters bool) *TelemetryHub {
	sampled := o.Trace != "" || o.Metrics != "" || o.Inband != "" || o.Health != ""
	memo := o.Memo == "on"
	if !sampled && o.Prof == "" && !memo && !counters {
		return nil
	}
	opt := base
	opt.Trace = o.Trace != ""
	opt.Inband = o.Inband != ""
	opt.Health = o.Health != ""
	opt.Memo = memo
	opt.Prof = o.Prof != ""
	if !sampled {
		opt.SampleInterval = 0
	}
	if memo && opt.SampleInterval != 0 {
		// The sampler's periodic daemon tick would land inside every
		// candidate window and block memoization entirely.
		opt.SampleInterval = 0
		fmt.Println("memo: periodic sampling disabled (incompatible with fast-forward)")
	}
	o.hub = EnableDefaultTelemetry(opt)
	return o.hub
}

// Finish ends a completed run: it writes the trace, the metrics, each
// distinct artifact directory through writeDir (nil means the hub's own
// WriteArtifacts; a sharded ensemble passes its own writer), the overflow
// warnings and the heap profile, then stops the CPU profile. A failed
// write does not stop the later ones; the failures come back joined. Only
// the first call does anything.
func (o *RunOptions) Finish(writeDir func(dir string) ([]string, error)) error {
	if o.finished {
		return nil
	}
	var errs []error
	if hub := o.hub; hub != nil {
		if o.Trace != "" {
			if err := writeFile(o.Trace, func(w io.Writer) error {
				_, err := hub.Tracer.WriteTo(w)
				return err
			}); err != nil {
				errs = append(errs, fmt.Errorf("trace: %w", err))
			} else {
				fmt.Printf("wrote %s (%d events)\n", o.Trace, hub.Tracer.Events())
			}
		}
		if o.Metrics != "" {
			if err := writeFile(o.Metrics, hub.Registry.WritePrometheus); err != nil {
				errs = append(errs, fmt.Errorf("metrics: %w", err))
			} else {
				fmt.Printf("wrote %s\n", o.Metrics)
			}
		}
		if writeDir == nil {
			writeDir = hub.WriteArtifacts
		}
		for _, dir := range o.artifactDirs() {
			paths, err := writeDir(dir)
			if err != nil {
				errs = append(errs, fmt.Errorf("artifacts: %w", err))
			}
			for _, p := range paths {
				fmt.Printf("wrote %s\n", p)
			}
		}
		for _, w := range OverflowWarnings(hub) {
			fmt.Fprintf(os.Stderr, "%s: %s\n", o.prog, w)
		}
	}
	return errors.Join(append(errs, o.stopProfiles()...)...)
}

// Exit ends a failed run: it prints err, writes the heap profile and stops
// the CPU profile (the run's telemetry is not written), then exits with
// status 2 for a UsageError and 1 otherwise.
func (o *RunOptions) Exit(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", o.prog, err)
	if !o.finished {
		for _, perr := range o.stopProfiles() {
			fmt.Fprintf(os.Stderr, "%s: %v\n", o.prog, perr)
		}
	}
	if errors.As(err, new(*UsageError)) {
		os.Exit(2)
	}
	os.Exit(1)
}

// stopProfiles writes the heap profile, then stops and closes the CPU
// profile, and marks the options finished.
func (o *RunOptions) stopProfiles() []error {
	o.finished = true
	var errs []error
	if o.MemProfile != "" {
		if err := writeFile(o.MemProfile, func(w io.Writer) error {
			return pprof.Lookup("allocs").WriteTo(w, 0)
		}); err != nil {
			errs = append(errs, fmt.Errorf("memprofile: %w", err))
		} else {
			fmt.Printf("wrote %s\n", o.MemProfile)
		}
	}
	if o.cpu != nil {
		pprof.StopCPUProfile()
		if err := o.cpu.Close(); err != nil {
			errs = append(errs, fmt.Errorf("cpuprofile: %w", err))
		}
		o.cpu = nil
	}
	return errs
}

// artifactDirs lists the distinct artifact directories in flag order:
// -inband, -health and -prof each dump the hub's full artifact set, so a
// directory named twice is written once.
func (o *RunOptions) artifactDirs() []string {
	var dirs []string
	for _, d := range []string{o.Inband, o.Health, o.Prof} {
		if d != "" && !slices.Contains(dirs, d) {
			dirs = append(dirs, d)
		}
	}
	return dirs
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
