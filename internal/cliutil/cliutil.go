// Package cliutil holds the flag-parsing and config plumbing shared by the
// sprinkler commands — sprinklersim, experiments and sprinklerd — so the
// platform knobs, profiling flags and exit/cleanup discipline stay one
// implementation instead of drifting as per-command copies.
package cliutil

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"sprinkler"
)

// App carries a command's name and its exit-time cleanups (profile
// writers, listeners). Cleanups run exactly once, LIFO, on Close or on
// any Fail/Check exit — so an aborted run still flushes its profiles.
type App struct {
	name     string
	cleanups []func()
}

// NewApp names the command for error prefixes.
func NewApp(name string) *App { return &App{name: name} }

// Defer registers a cleanup to run at exit (normal or failed).
func (a *App) Defer(fn func()) { a.cleanups = append(a.cleanups, fn) }

// Close runs the registered cleanups (idempotent).
func (a *App) Close() {
	for i := len(a.cleanups) - 1; i >= 0; i-- {
		a.cleanups[i]()
	}
	a.cleanups = nil
}

// Check exits through Failf when err is non-nil.
func (a *App) Check(err error) {
	if err != nil {
		a.Failf("%v", err)
	}
}

// Failf prints "name: message" to stderr, runs the cleanups, and exits 1.
func (a *App) Failf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", a.name, fmt.Sprintf(format, args...))
	a.Close()
	os.Exit(1)
}

// Profiles is the -cpuprofile/-memprofile flag pair. Register the flags
// before flag.Parse, call Start after it; the profile writers are
// registered as App cleanups so they flush on every exit path.
type Profiles struct {
	app *App
	cpu string
	mem string
}

// ProfileFlags registers the profiling flags on fs.
func (a *App) ProfileFlags(fs *flag.FlagSet) *Profiles {
	p := &Profiles{app: a}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write an allocation profile (taken at exit) to this file")
	return p
}

// Start begins the CPU profile and arms the exit-time writers.
func (p *Profiles) Start() error {
	if p.cpu != "" {
		f, err := os.Create(p.cpu)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		p.app.Defer(func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if p.mem != "" {
		path := p.mem
		p.app.Defer(func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			runtime.GC() // settle live-heap stats before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
			f.Close()
		})
	}
	return nil
}

// Platform is the shared platform flag set: chip count, queue depth,
// scheduler and the GC-stress shaping sprinklersim introduced. Commands
// register it and derive their base Config from one implementation.
type Platform struct {
	Chips    int
	Queue    int
	Sched    string
	GCStress bool

	// Fault-injection knobs (-fault-*). FaultRate sets all three
	// per-operation probabilities at once; the per-op flags override it.
	FaultRate    float64
	FaultRead    float64
	FaultProgram float64
	FaultErase   float64
	FaultRetries int
	FaultSpares  float64
	FaultSeed    uint64
}

// Register adds the platform flags to fs with the shared defaults.
func (p *Platform) Register(fs *flag.FlagSet) {
	fs.IntVar(&p.Chips, "chips", 64, "total flash chips")
	fs.IntVar(&p.Queue, "queue", 64, "device-level queue depth")
	fs.StringVar(&p.Sched, "sched", "SPK3", "scheduler: VAS, PAS, SPK1, SPK2, SPK3")
	fs.BoolVar(&p.GCStress, "gc", false, "shrink blocks and precondition to 95% full so GC runs")
	p.RegisterFaults(fs)
}

// RegisterFaults adds only the -fault-* flags — for commands that manage
// the rest of their platform flags themselves.
func (p *Platform) RegisterFaults(fs *flag.FlagSet) {
	fs.Float64Var(&p.FaultRate, "fault-rate", 0,
		"per-operation flash failure probability (sets read, program and erase at once; 0 disables fault injection)")
	fs.Float64Var(&p.FaultRead, "fault-read", -1, "read-sense failure probability (overrides -fault-rate)")
	fs.Float64Var(&p.FaultProgram, "fault-program", -1, "program failure probability (overrides -fault-rate)")
	fs.Float64Var(&p.FaultErase, "fault-erase", -1, "erase failure probability (overrides -fault-rate)")
	fs.IntVar(&p.FaultRetries, "fault-retries", 4, "read-retry ladder depth (also bounds program-fail rewrites)")
	fs.Float64Var(&p.FaultSpares, "fault-spares", 0,
		"fraction of each plane's blocks reserved as bad-block spares (exhaustion degrades the drive to read-only)")
	fs.Uint64Var(&p.FaultSeed, "fault-seed", 0, "base seed of the deterministic per-chip fault streams")
}

// Faults builds the fault spec the flags describe.
func (p Platform) Faults() sprinkler.FaultSpec {
	pick := func(v float64) float64 {
		if v >= 0 {
			return v
		}
		return p.FaultRate
	}
	return sprinkler.FaultSpec{
		ReadFailProb:    pick(p.FaultRead),
		ProgramFailProb: pick(p.FaultProgram),
		EraseFailProb:   pick(p.FaultErase),
		ReadRetryMax:    p.FaultRetries,
		ReadRetryMult:   2,
		RewriteMax:      p.FaultRetries,
		SpareBlockFrac:  p.FaultSpares,
		Seed:            p.FaultSeed,
	}
}

// Config builds the platform configuration the flags describe.
func (p Platform) Config() sprinkler.Config {
	cfg := sprinkler.Platform(p.Chips)
	cfg.QueueDepth = p.Queue
	cfg.Scheduler = sprinkler.SchedulerKind(p.Sched)
	cfg.Faults = p.Faults()
	if p.GCStress {
		cfg.BlocksPerPlane = 24
		cfg.PagesPerBlock = 64
		cfg.LogicalPages = cfg.TotalPages() * 85 / 100
	}
	return cfg
}

// Precondition returns the GC-stress preconditioning pass, nil unless -gc
// was set.
func (p Platform) Precondition(seed uint64) *sprinkler.Precondition {
	if !p.GCStress {
		return nil
	}
	return &sprinkler.Precondition{FillFrac: 0.95, ChurnFrac: 0.5, Seed: seed}
}

// WarmState is the shared -save-state/-load-state flag pair: write a
// device's warm state once after preconditioning, hydrate it on later
// invocations instead of re-running the warm-up.
type WarmState struct {
	SavePath string
	LoadPath string
}

// Register adds the warm-state flags to fs.
func (w *WarmState) Register(fs *flag.FlagSet) {
	fs.StringVar(&w.SavePath, "save-state", "",
		"write the device's warm state (after any preconditioning) to this file, then run as usual")
	fs.StringVar(&w.LoadPath, "load-state", "",
		"hydrate the device from this warm-state snapshot instead of preconditioning (the platform comes from the snapshot; -sched still applies)")
}

// Device builds the run's device honouring the warm-state flags. With
// -load-state the snapshot supplies the platform — only the caller's
// scheduler choice carries over — and pre is skipped, since the snapshot
// already embodies a warm-up. Otherwise a fresh device is built from cfg
// and pre applied. With -save-state the device's warm state is written
// before returning. The returned config is the one the device actually
// runs (the snapshot's under -load-state); callers must build their
// sources from it.
func (w *WarmState) Device(cfg sprinkler.Config, pre *sprinkler.Precondition) (*sprinkler.Device, sprinkler.Config, error) {
	var dev *sprinkler.Device
	if w.LoadPath != "" {
		f, err := os.Open(w.LoadPath)
		if err != nil {
			return nil, cfg, err
		}
		snap, err := sprinkler.ReadSnapshot(f)
		f.Close()
		if err != nil {
			return nil, cfg, err
		}
		run := snap.Config()
		run.Scheduler = cfg.Scheduler
		if dev, err = snap.NewDevice(run); err != nil {
			return nil, cfg, err
		}
		cfg = run
	} else {
		var err error
		if dev, err = sprinkler.New(cfg); err != nil {
			return nil, cfg, err
		}
		if pre != nil {
			dev.Precondition(pre.FillFrac, pre.ChurnFrac, pre.Seed)
		}
	}
	if w.SavePath != "" {
		f, err := os.Create(w.SavePath)
		if err != nil {
			return nil, cfg, err
		}
		err = dev.Checkpoint(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, cfg, err
		}
	}
	return dev, cfg, nil
}
