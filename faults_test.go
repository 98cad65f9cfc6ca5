package sprinkler_test

// Fault-injection pins: the standing determinism contracts of the fault
// model. (1) Aggressive rates make the fault counters fire. (2) A
// zero-rate spec is byte-identical to a fault-free build, even with
// retry-ladder knobs set: zero probabilities consume no RNG draws. (3)
// Spare exhaustion degrades the drive to read-only mode with a flagged
// Result instead of a panic or hang.

import (
	"context"
	"encoding/json"
	"testing"

	"sprinkler"
)

// TestFaultCountersNonZero guards the fault model against vacuity: with
// aggressive rates the read-retry and program-fail counters must actually
// fire.
func TestFaultCountersNonZero(t *testing.T) {
	cfg := sprinkler.DefaultConfig()
	cfg.Scheduler = sprinkler.SPK3
	cfg.Channels = 4
	cfg.ChipsPerChan = 2
	cfg.BlocksPerPlane = 64
	cfg.PagesPerBlock = 32
	cfg.DisableGC = true
	cfg.Faults = sprinkler.FaultSpec{
		ReadFailProb:    0.3,
		ProgramFailProb: 0.3,
		ReadRetryMax:    3,
		ReadRetryMult:   2,
		RewriteMax:      3,
		Seed:            7,
	}
	dev, err := sprinkler.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev.Precondition(0.5, 0.2, 11)
	src, err := cfg.NewWorkloadSource(sprinkler.WorkloadSpec{Name: "cfs0", Requests: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dev.Run(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadRetries == 0 || res.ProgramFails == 0 {
		t.Fatalf("fault model idle under 30%% rates: retries=%d programFails=%d",
			res.ReadRetries, res.ProgramFails)
	}
}

// TestFaultZeroRateParity pins the "zero rates draw nothing" contract: a
// spec with every probability zero but the ladder knobs set must be
// byte-identical to a fully zero FaultSpec — on the GC-enabled default
// pipeline, where any stray RNG draw would perturb the FTL stream.
func TestFaultZeroRateParity(t *testing.T) {
	base := smallConfig(sprinkler.SPK2)

	armed := base
	armed.Faults = sprinkler.FaultSpec{
		ReadRetryMax:   4,
		ReadRetryMult:  3,
		RewriteMax:     2,
		OutagePeriodNS: 0,
		Seed:           0, // a nonzero seed with zero rates must also be inert; see below
	}

	run := func(cfg sprinkler.Config) string {
		dev, err := sprinkler.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dev.Precondition(0.9, 0.4, 5)
		src, err := cfg.NewWorkloadSource(sprinkler.WorkloadSpec{Name: "hm0", Requests: 300, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		res, err := dev.Run(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	want := run(base)
	if got := run(armed); got != want {
		t.Fatalf("zero-rate spec with ladder knobs diverges from fault-free build\nfault-free: %s\nzero-rate:  %s", want, got)
	}
	// The spare pool is the one knob that legitimately changes a zero-rate
	// build (it shrinks usable capacity), so it is excluded here; the seed
	// is not — rates of zero must never reach the RNG.
	armed.Faults.Seed = 0xDECAFBAD
	if got := run(armed); got != want {
		t.Fatal("zero-rate spec consumed RNG draws: changing Faults.Seed changed the result")
	}
}

// TestDegradedModeOnSpareExhaustion is the graceful-degradation pin:
// every erase fails, the spare pool is tiny, and a write-heavy GC-stressed
// workload must exhaust the spares. The run must complete cleanly with
// the Result flagging degraded read-only mode and failed writes — not
// panic, not hang.
func TestDegradedModeOnSpareExhaustion(t *testing.T) {
	cfg := sprinkler.DefaultConfig()
	cfg.Scheduler = sprinkler.SPK3
	cfg.Channels = 2
	cfg.ChipsPerChan = 1
	cfg.BlocksPerPlane = 16
	cfg.PagesPerBlock = 16
	cfg.GCFreeTarget = 4
	cfg.Faults = sprinkler.FaultSpec{
		EraseFailProb:  1.0,
		SpareBlockFrac: 0.1,
		Seed:           13,
	}
	dev, err := sprinkler.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev.Precondition(0.95, 0.5, 21)
	src, err := cfg.NewFixedSource(sprinkler.FixedSpec{Requests: 4000, Pages: 4, Write: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dev.Run(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DegradedMode {
		t.Fatalf("drive did not degrade: %d erase fails, %d retired blocks, %d failed IOs",
			res.EraseFails, res.RetiredBlocks, res.FailedIOs)
	}
	if res.EraseFails == 0 || res.RetiredBlocks == 0 {
		t.Fatalf("degraded without erase activity: eraseFails=%d retired=%d", res.EraseFails, res.RetiredBlocks)
	}
	if res.FailedIOs == 0 {
		t.Fatal("degraded read-only mode failed no writes")
	}
	if res.IOsCompleted == 0 {
		t.Fatal("no I/Os completed before degradation")
	}

	// Degradation must survive Reset: the recycled device starts healthy
	// again (spares restored) and replays the identical schedule.
	before, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	dev.Reset(cfg)
	dev.Precondition(0.95, 0.5, 21)
	src, err = cfg.NewFixedSource(sprinkler.FixedSpec{Requests: 4000, Pages: 4, Write: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := dev.Run(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	after, err := json.Marshal(res2)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatalf("degraded run does not replay after Reset\nfresh: %s\nreset: %s", before, after)
	}
}
