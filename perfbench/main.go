// Command perfbench is the simulator's end-to-end benchmark. It drives the
// program only through its public Go API (package sprinkler, the serving
// layer and its client) from one process, on one of three workloads:
//
//	stream      one pristine 64-chip SPK3 device fed an open-loop msnfs1
//	            stream through Device.Run
//	aged-sweep  a Grid of all five schedulers over hm0 and hm1, every
//	            cell hydrated from a preconditioned, GC-active snapshot
//	daemon      an in-process sprinklerd behind a loopback listener,
//	            driven by one client in a closed loop of small sessions
//
// Each run sets up several times (the median is setup_s), then runs whole
// rounds of its workload for --seconds and prints the end-to-end metrics.
// With --trace 1 every second round of the timed section runs with spans
// and a CPU profile on, and the run prints the per-layer metrics instead. The last line
// of standard output is always one JSON object: correct, attempted,
// failed and metrics. See README.md for the metric definitions.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"sprinkler"
)

const (
	// defaultSeed is the seed the benchmark was tuned on; heldOutSeed was
	// never used while tuning and checks that nothing is fitted to it.
	defaultSeed = 1
	heldOutSeed = 4099

	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 5
	// setupBudget bounds the set-ups and the checks after them; the
	// timed section gets twice its length on top.
	setupBudget = 90 * time.Second
)

// workload is one benchmark workload after set-up.
type workload interface {
	// round runs one whole round of the workload's operations, counting
	// each in b, and returns the simulated I/Os completed.
	round(ctx context.Context, b *bench) int64
	// sim is the SPK3 Result the sim_* metrics and the modelled-device
	// counters are read from.
	sim() *sprinkler.Result
	// verify runs the set-up-level checks once, after the last set-up
	// and outside its timing.
	verify(ctx context.Context, b *bench) error
	// layers adds the workload's own per-layer metrics.
	layers(b *bench, m metrics)
	close()
}

// setupFunc builds a workload; the last of setupReps builds is measured.
type setupFunc func(ctx context.Context, b *bench) (workload, error)

var workloads = map[string]setupFunc{
	"stream":     setupStream,
	"aged-sweep": setupAged,
	"daemon":     setupDaemon,
}

// bench is one run's shared state.
type bench struct {
	seed   uint64
	outDir string
	tr     *tracer
	calls  latencies // wall latency of each call in the current section
	pulls  pullClock

	snapshotMB float64 // size of the warm snapshot image, MiB

	attempted, failed int64
	setupErrs         []string // failed set-up-level checks
}

// op counts one attempted operation, failing it when err is non-nil.
func (b *bench) op(what string, err error) bool {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", what, err)
		return false
	}
	return true
}

// setupCheck records a failed set-up-level check; it makes the run
// incorrect.
func (b *bench) setupCheck(what string, err error) {
	if err != nil {
		b.setupErrs = append(b.setupErrs, what)
		fmt.Fprintf(os.Stderr, "perfbench: set-up check %s failed: %v\n", what, err)
	}
}

// sample is what a set of rounds measured.
type sample struct {
	elapsed time.Duration
	ios     int64 // simulated I/Os completed

	// Allocation: heap objects, bytes, GC cycles.
	mallocs, allocBytes uint64
	gcCycles            uint32
}

// rate is the simulated I/Os completed per wall-second.
func (s sample) rate() float64 { return float64(s.ios) / s.elapsed.Seconds() }

func (s *sample) add(o sample) {
	s.elapsed += o.elapsed
	s.ios += o.ios
	s.mallocs += o.mallocs
	s.allocBytes += o.allocBytes
	s.gcCycles += o.gcCycles
}

// section is what one timed section measured.
type section struct {
	sample           // every round; in a traced section, the untraced rounds
	rounds  []sample // every round, in order
	profile []string // CPU profile files of the traced rounds
}

// round runs and measures one round of w.
func round(ctx context.Context, b *bench, w workload) sample {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	n := w.round(ctx, b)
	elapsed := time.Since(t)
	runtime.ReadMemStats(&m1)
	return sample{
		elapsed:    elapsed,
		ios:        n,
		mallocs:    m1.Mallocs - m0.Mallocs,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		gcCycles:   m1.NumGC - m0.NumGC,
	}
}

// timed runs whole rounds for dur, after forcing a GC so every section
// starts from the same heap. A traced section alternates untraced and
// traced rounds, in pairs, so both kinds see the same phases of the
// host; the traced ones record spans and a CPU profile each.
func timed(ctx context.Context, b *bench, w workload, dur time.Duration, traced bool) (section, error) {
	b.calls.reset()
	if traced {
		// Profiles of an earlier traced run would read as this one's.
		old, _ := filepath.Glob(filepath.Join(b.outDir, "cpu-*.pprof"))
		for _, f := range old {
			if err := os.Remove(f); err != nil {
				return section{}, err
			}
		}
	}
	runtime.GC()
	var s section
	start := time.Now()
	for i := 0; ctx.Err() == nil && (time.Since(start) < dur || (traced && i%2 == 1)); i++ {
		if !traced || i%2 == 0 {
			r := round(ctx, b, w)
			s.add(r)
			s.rounds = append(s.rounds, r)
			continue
		}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return s, fmt.Errorf("cpu profile: %w", err)
		}
		b.tr.on = true
		r := round(ctx, b, w)
		b.tr.on = false
		pprof.StopCPUProfile()
		s.rounds = append(s.rounds, r)
		path := filepath.Join(b.outDir, fmt.Sprintf("cpu-%03d.pprof", i/2))
		if err := os.WriteFile(path, prof.Bytes(), 0o644); err != nil {
			return s, err
		}
		s.profile = append(s.profile, path)
	}
	// The per-round rates show how much the host's speed swings.
	rates := make([]float64, len(s.rounds))
	for i, r := range s.rounds {
		rates[i] = r.rate()
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d rounds in %.1fs, simulated I/Os per second by round: %.0f\n",
		len(s.rounds), time.Since(start).Seconds(), rates)
	return s, nil
}

// overheadPct is the median, over the traced section's pairs of rounds,
// of the traced round's slowdown against the untraced round before it.
func (s section) overheadPct() float64 {
	var pcts []float64
	for i := 0; i+1 < len(s.rounds); i += 2 {
		pcts = append(pcts, (s.rounds[i].rate()/s.rounds[i+1].rate()-1)*100)
	}
	return median(pcts)
}

// metrics is the result object's metric map.
type metrics map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{v, unit}
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "stream", "workload: stream, aged-sweep or daemon")
	seed := flag.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed (default %d; held-out seed %d)", defaultSeed, heldOutSeed))
	seconds := flag.Int("seconds", 30, "length of the timed section in seconds")
	trace := flag.Int("trace", 0, "1 traces every second round (spans and a CPU profile) and prints the per-layer metrics")
	outDir := flag.String("out", ".bench_build/perfbench", "directory for scratch files, spans and the CPU profile")
	flag.Parse()
	setup, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *seed == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d, seed %d)\n", *name, *seconds, *trace, *seed)
		return 2
	}
	// One goroutine drives each simulation; one P keeps the Go runtime's
	// own work (GC marking) on the measured core instead of on whichever
	// core the shared host leaves free.
	runtime.GOMAXPROCS(1)
	dur := time.Duration(*seconds) * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), setupBudget+2*dur)
	defer cancel()

	b := &bench{seed: *seed, outDir: *outDir, tr: newTracer(), calls: newLatencies()}
	b.pulls.b = b
	// Set-up spans are recorded in the traced mode.
	b.tr.on = *trace == 1
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var w workload
	setupTimes := make([]float64, setupReps)
	for i := range setupReps {
		if w != nil {
			w.close()
			w = nil
		}
		// Collect the previous set-up first: every set-up starts from the
		// same heap, and the peak holds one instance, not two.
		runtime.GC()
		t := time.Now()
		var err error
		if w, err = setup(ctx, b); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			return 1
		}
		setupTimes[i] = time.Since(t).Seconds()
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-up times %.3f s\n", setupTimes)
	defer w.close()
	if err := w.verify(ctx, b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: set-up check:", err)
		return 1
	}
	b.tr.on = false

	s, err := timed(ctx, b, w, dur, *trace == 1)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: timed section:", err)
		return 1
	}
	m := metrics{}
	if *trace == 0 {
		endToEnd(m, b, w, s, median(setupTimes))
	} else if err := perLayer(ctx, m, b, w, s); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return report(b, m)
}

// endToEnd fills the metrics a user of the simulator sees.
func endToEnd(m metrics, b *bench, w workload, s section, setupS float64) {
	res := w.sim()
	m.set("setup_s", setupS, "s")
	m.set("sim_ios_per_s", s.rate(), "1/s")
	m.set("peak_rss_mb", peakRSSMB(), "MB")
	m.set("sim_iops", res.IOPS, "IOPS")
	m.set("sim_lat_p50_ms", float64(res.P50LatencyNS)/1e6, "ms")
	m.set("sim_lat_p99_ms", float64(res.P99LatencyNS)/1e6, "ms")
	m.set("call_p99_ms", b.calls.percentile(0.99)/1e6, "ms")
}

// perLayer fills the per-layer metrics: spans, host self time per module
// from the traced rounds' CPU profiles, allocation over the untraced
// rounds, and the modelled device's counters.
func perLayer(ctx context.Context, m metrics, b *bench, w workload, s section) error {
	self, err := moduleSelfTime(ctx, s.profile)
	if err != nil {
		return fmt.Errorf("reading the CPU profile: %w", err)
	}
	for _, mod := range modules {
		m.set(mod+".self_s", self[mod], "s")
	}
	m.set("bench.trace_overhead_pct", s.overheadPct(), "%")
	ios := float64(max(s.ios, 1))
	m.set("runtime.allocs_per_io", float64(s.mallocs)/ios, "count")
	m.set("runtime.alloc_kb_per_io", float64(s.allocBytes)/1024/ios, "KiB")
	m.set("runtime.gc_cycles", float64(s.gcCycles), "count")

	res := w.sim()
	m.set("nvmhc.queue_stall_frac", res.QueueStallFraction, "fraction")
	m.set("flash.chip_util", res.ChipUtilization, "fraction")
	m.set("flash.intra_chip_idle", res.IntraChipIdleness, "fraction")
	m.set("flash.mem_level_idle", res.MemoryLevelIdleness, "fraction")
	m.set("core.txn_per_io", float64(res.Transactions)/float64(max(res.IOsCompleted, 1)), "count")
	m.set("core.flp_degree", res.AvgFLPDegree, "count")
	m.set("bus.contention_frac", res.Exec.BusContention, "fraction")
	m.set("ftl.gc_runs", float64(res.GCRuns), "count")
	m.set("ftl.gc_page_moves", float64(res.GCPageMoves), "count")
	m.set("ftl.write_amp", res.WriteAmplification, "ratio")
	m.set("ftl.stale_retrans", float64(res.StaleRetranslations), "count")

	// Metrics of layers a workload does not exercise read 0.
	for _, name := range []string{
		"root.new_s", "root.warmup_s", "ssd.precondition_s", "root.checkpoint_s",
		"root.read_snapshot_s", "root.cell_run_s",
	} {
		m.set(name, 0, "s")
	}
	m.set("root.snapshot_mb", 0, "MB")
	for _, name := range []string{
		"root.hydrate_ms", "serve.open_ms", "serve.open_warm_ms", "serve.feed_ms",
		"serve.advance_ms", "serve.drain_ms",
	} {
		m.set(name, 0, "ms")
	}
	for _, k := range sprinkler.Schedulers()[:4] {
		m.set("sched.iops_"+string(k), 0, "IOPS")
	}
	w.layers(b, m)
	return nil
}

// report prints the metric table and, as the last line, the JSON result.
func report(b *bench, m metrics) int {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-26s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Printf("%-26s %14d\n%-26s %14d\n", "attempted", b.attempted, "failed", b.failed)
	out, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{len(b.setupErrs) == 0, b.attempted, b.failed, m})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%g", &kb)
			return kb / 1024
		}
	}
	return 0
}
