package sprinkler_test

// Warm-state snapshot tests: the restore-vs-replay parity contract
// (a device hydrated from a checkpoint is byte-identical in behaviour to
// one that replayed the preconditioning), the file-format robustness
// guarantees (corrupt, truncated, version-skewed and oversized inputs are
// rejected with descriptive errors and nothing is partially hydrated),
// and the plumbing layers above the codec: DeviceArena registration,
// Grid/Runner sweep hydration, and Session opening.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sprinkler"
)

// agedConfig is the parity tests' platform: small enough to keep the
// matrix fast, with blocks shrunk and the logical space clipped the way
// the GC-stress path does, so preconditioning produces real GC pressure
// and the snapshot carries non-trivial FTL state.
func agedConfig(kind sprinkler.SchedulerKind) sprinkler.Config {
	cfg := sprinkler.Platform(8)
	cfg.Scheduler = kind
	cfg.BlocksPerPlane = 24
	cfg.PagesPerBlock = 32
	cfg.LogicalPages = cfg.TotalPages() * 85 / 100
	return cfg
}

// checkpointOf preconditions a fresh device on cfg and returns its
// serialized warm state.
func checkpointOf(t *testing.T, cfg sprinkler.Config, fill, churn float64, seed uint64) []byte {
	t.Helper()
	dev, err := sprinkler.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev.Precondition(fill, churn, seed)
	var buf bytes.Buffer
	if err := dev.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runWorkload replays a deterministic workload and fingerprints the full
// Result.
func runWorkload(t *testing.T, dev *sprinkler.Device, workload string, n int, seed uint64) string {
	t.Helper()
	src, err := dev.Config().NewWorkloadSource(sprinkler.WorkloadSpec{Name: workload, Requests: n, Seed: seed})
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

// TestSnapshotRestoreReplayParity is the tentpole contract, randomized
// over schedulers and fault specs: a device restored from a checkpoint
// must produce a byte-identical Result to a device that replayed the same
// preconditioning.
func TestSnapshotRestoreReplayParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	workloads := []string{"msnfs1", "cfs0", "proj2"}
	faultSpecs := []sprinkler.FaultSpec{
		{},
		{ReadFailProb: 0.01, ProgramFailProb: 0.005, EraseFailProb: 0.002,
			ReadRetryMax: 3, ReadRetryMult: 2, RewriteMax: 3, SpareBlockFrac: 0.1, Seed: 99},
	}
	for _, kind := range sprinkler.Schedulers() {
		for fi, faults := range faultSpecs {
			kind, fi, faults := kind, fi, faults
			name := fmt.Sprintf("%s/faults=%d", kind, fi)
			fill := 0.5 + rng.Float64()*0.4
			churn := rng.Float64() * 0.5
			preSeed := rng.Uint64()
			wl := workloads[rng.Intn(len(workloads))]
			runSeed := rng.Uint64()
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := agedConfig(kind)
				cfg.Faults = faults

				// Reference: replay the warm-up, then the workload.
				ref, err := sprinkler.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref.Precondition(fill, churn, preSeed)
				want := runWorkload(t, ref, wl, 300, runSeed)

				// Restored: the same warm-up through a checkpoint file.
				raw := checkpointOf(t, cfg, fill, churn, preSeed)
				dev, err := sprinkler.RestoreDevice(bytes.NewReader(raw))
				if err != nil {
					t.Fatal(err)
				}
				if got := runWorkload(t, dev, wl, 300, runSeed); got != want {
					t.Errorf("restored device diverged from replayed one:\n replay:  %s\n restore: %s", want, got)
				}
			})
		}
	}
}

// TestSnapshotSchedulerOverride pins the CompatibleConfig contract: one
// snapshot hydrates a device per scheduler, each byte-identical to a
// device that replayed the warm-up under that scheduler.
func TestSnapshotSchedulerOverride(t *testing.T) {
	base := agedConfig(sprinkler.SPK3)
	raw := checkpointOf(t, base, 0.8, 0.3, 21)
	snap, err := sprinkler.ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range sprinkler.Schedulers() {
		cfg := base
		cfg.Scheduler = kind
		ref, err := sprinkler.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref.Precondition(0.8, 0.3, 21)
		want := runWorkload(t, ref, "cfs4", 250, 5)

		dev, err := snap.NewDevice(cfg)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if got := runWorkload(t, dev, "cfs4", 250, 5); got != want {
			t.Errorf("%s: hydrated device diverged:\n replay:  %s\n restore: %s", kind, want, got)
		}
	}
}

// TestSnapshotConfigCompatibility pins which knobs may differ between
// capture and hydration (scheduler, host-side observation budgets) and
// that everything else is refused.
func TestSnapshotConfigCompatibility(t *testing.T) {
	base := agedConfig(sprinkler.SPK3)
	raw := checkpointOf(t, base, 0.7, 0.2, 3)
	snap, err := sprinkler.ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	allowed := []func(*sprinkler.Config){
		func(c *sprinkler.Config) { c.Scheduler = sprinkler.VAS },
		func(c *sprinkler.Config) { c.MaxBacklog = 4096 },
		func(c *sprinkler.Config) { c.CollectSeries = true; c.SeriesWindow = 64 },
	}
	for i, mutate := range allowed {
		cfg := base
		mutate(&cfg)
		if !snap.CompatibleConfig(cfg) {
			t.Errorf("allowed mutation %d judged incompatible", i)
		}
		if _, err := snap.NewDevice(cfg); err != nil {
			t.Errorf("allowed mutation %d refused: %v", i, err)
		}
	}

	refused := []func(*sprinkler.Config){
		func(c *sprinkler.Config) { c.ChipsPerChan *= 2 },
		func(c *sprinkler.Config) { c.QueueDepth = 8 },
		func(c *sprinkler.Config) { c.MetricsSampleCap = 128 },
		func(c *sprinkler.Config) { c.Faults.ReadFailProb = 0.5 },
		func(c *sprinkler.Config) { c.LogicalPages = c.TotalPages() / 2 },
	}
	for i, mutate := range refused {
		cfg := base
		mutate(&cfg)
		if snap.CompatibleConfig(cfg) {
			t.Errorf("refused mutation %d judged compatible", i)
		}
		if _, err := snap.NewDevice(cfg); err == nil {
			t.Errorf("refused mutation %d hydrated without error", i)
		}
	}
}

// mutateSnapshot applies f to a copy of raw and recomputes the CRC
// trailer, producing a structurally corrupted but checksum-valid file.
func mutateSnapshot(raw []byte, f func([]byte) []byte) []byte {
	body := append([]byte(nil), raw[:len(raw)-4]...)
	body = f(body)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(body))
	return append(body, crc[:]...)
}

// TestSnapshotRejectsDamage feeds every flavour of damaged file through
// ReadSnapshot/RestoreDevice and demands a descriptive error — never a
// device, never a panic.
func TestSnapshotRejectsDamage(t *testing.T) {
	raw := checkpointOf(t, agedConfig(sprinkler.SPK2), 0.6, 0.3, 7)

	cases := []struct {
		name string
		in   []byte
		want string // substring of the error
	}{
		{"empty", nil, "truncated"},
		{"short", raw[:8], "truncated"},
		{"bad magic", append([]byte("NOTASNAP"), raw[8:]...), "bad magic"},
		{"truncated mid-payload", raw[:len(raw)/2], "checksum"},
		{"flipped payload byte", flipByte(raw, len(raw)/2), "checksum"},
		{"flipped trailer byte", flipByte(raw, len(raw)-1), "checksum"},
		{"future version", mutateSnapshot(raw, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], sprinkler.SnapshotVersion+1)
			return b
		}), "version"},
		{"trailing bytes", mutateSnapshot(raw, func(b []byte) []byte {
			return append(b, 0xDE, 0xAD)
		}), "trailing"},
		{"config length overruns", mutateSnapshot(raw, func(b []byte) []byte {
			// Replace everything after the version with a huge uvarint.
			return append(b[:12], 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)
		}), "exceeds"},
		{"payload garbage", mutateSnapshot(raw, func(b []byte) []byte {
			// Find the payload (after the config JSON) and zero its head:
			// the codec must reject it, not build a half-device.
			_, off := binary.Uvarint(b[12:])
			n, _ := binary.Uvarint(b[12:])
			payloadStart := 12 + off + int(n)
			for i := payloadStart + 2; i < payloadStart+10 && i < len(b); i++ {
				b[i] = 0xFF
			}
			return b
		}), "snapshot"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := sprinkler.ReadSnapshot(bytes.NewReader(tc.in)); err == nil {
				t.Fatal("damaged snapshot decoded without error")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			if dev, err := sprinkler.RestoreDevice(bytes.NewReader(tc.in)); err == nil || dev != nil {
				t.Errorf("RestoreDevice returned (%v, %v) for damaged input", dev, err)
			}
		})
	}
}

// TestSnapshotLegacyParallelChannelsKey pins the one legacy config key
// the strict snapshot decoder accepts: files written while devices had a
// ParallelChannels knob carry it in their config JSON. A copy of a fresh
// snapshot with "ParallelChannels":4 spliced in must decode to the same
// config and run byte-identically; any other unknown key stays an error.
func TestSnapshotLegacyParallelChannelsKey(t *testing.T) {
	raw := checkpointOf(t, agedConfig(sprinkler.SPK3), 0.7, 0.2, 5)
	withKey := func(key string) []byte {
		return mutateSnapshot(raw, func(b []byte) []byte {
			n, w := binary.Uvarint(b[12:])
			cfgJSON := b[12+w : 12+w+int(n)]
			if cfgJSON[0] != '{' {
				t.Fatalf("config section does not start a JSON object: %q", cfgJSON[:8])
			}
			edited := append([]byte("{"+key+","), cfgJSON[1:]...)
			out := append([]byte(nil), b[:12]...)
			out = binary.AppendUvarint(out, uint64(len(edited)))
			out = append(out, edited...)
			return append(out, b[12+w+int(n):]...)
		})
	}

	plain, err := sprinkler.ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := sprinkler.ReadSnapshot(bytes.NewReader(withKey(`"ParallelChannels":4`)))
	if err != nil {
		t.Fatalf("legacy ParallelChannels key rejected: %v", err)
	}
	if legacy.Config() != plain.Config() {
		t.Fatalf("legacy key changed the decoded config:\n plain:  %+v\n legacy: %+v", plain.Config(), legacy.Config())
	}
	run := func(snap *sprinkler.DeviceSnapshot) string {
		dev, err := snap.NewDevice()
		if err != nil {
			t.Fatal(err)
		}
		return runWorkload(t, dev, "cfs0", 300, 21)
	}
	if got, want := run(legacy), run(plain); got != want {
		t.Errorf("legacy-key snapshot diverged:\n plain:  %s\n legacy: %s", want, got)
	}

	if _, err := sprinkler.ReadSnapshot(bytes.NewReader(withKey(`"Bogus":1`))); err == nil ||
		!strings.Contains(err.Error(), "Bogus") {
		t.Errorf("unknown config key not rejected by name: %v", err)
	}
}

// flipByte copies b with one byte XOR-flipped.
func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x5A
	return out
}

// TestSnapshotGoldenFixture decodes the checked-in fixture — written by
// testdata/gen_snapshot.go on the version-1 format — and runs a workload
// on it. This pins backward readability: a codec change that cannot read
// version-1 files must bump SnapshotVersion, not silently misdecode.
func TestSnapshotGoldenFixture(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "warm_v1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := sprinkler.ReadSnapshot(f)
	if err != nil {
		t.Fatalf("golden fixture no longer decodes: %v", err)
	}
	cfg := snap.Config()
	if cfg.Channels != 2 || cfg.ChipsPerChan != 4 || cfg.Scheduler != sprinkler.SPK3 {
		t.Fatalf("fixture config drifted: %+v", cfg)
	}
	dev, err := snap.NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	fp := runWorkload(t, dev, "msnfs1", 200, 13)

	// The fixture must hydrate deterministically: a second device from the
	// same decoded snapshot replays identically.
	dev2, err := snap.NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	if fp2 := runWorkload(t, dev2, "msnfs1", 200, 13); fp2 != fp {
		t.Errorf("fixture hydration not deterministic:\n first:  %s\n second: %s", fp, fp2)
	}
}

// TestArenaGetFromSnapshot covers the pooled hydration path: fresh build,
// recycled checkout (Reset + hydrate), and the unknown-name error.
func TestArenaGetFromSnapshot(t *testing.T) {
	cfg := agedConfig(sprinkler.SPK1)
	raw := checkpointOf(t, cfg, 0.75, 0.4, 17)
	snap, err := sprinkler.ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	ref, err := snap.NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	want := runWorkload(t, ref, "proj0", 200, 23)

	arena := sprinkler.NewDeviceArena()
	arena.RegisterSnapshot("warm", snap)
	if _, err := arena.GetFromSnapshot("missing"); err == nil {
		t.Error("unknown snapshot name did not error")
	}

	// First checkout builds fresh; the second recycles the pooled device
	// through Reset before hydrating. Both must match the reference.
	for round := 0; round < 2; round++ {
		dev, err := arena.GetFromSnapshot("warm", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := runWorkload(t, dev, "proj0", 200, 23); got != want {
			t.Errorf("round %d: arena-hydrated device diverged:\n want: %s\n got:  %s", round, want, got)
		}
		arena.Put(dev)
	}
	stats := arena.Stats()
	if stats.DeviceHits == 0 {
		t.Errorf("second checkout did not recycle the pooled device: %+v", stats)
	}
}

// TestGridSnapshotSweep runs an aged-drive scheduler sweep hydrated from
// one registered snapshot — concurrently, with and without device reuse —
// and checks every cell equals a directly hydrated reference run.
func TestGridSnapshotSweep(t *testing.T) {
	base := agedConfig(sprinkler.SPK3)
	raw := checkpointOf(t, base, 0.85, 0.35, 29)
	snap, err := sprinkler.ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	grid := sprinkler.Grid{
		Base:       base,
		Schedulers: sprinkler.Schedulers(),
		Workloads:  []string{"msnfs1", "cfs0"},
		Requests:   150,
		Snapshot:   "warm",
	}

	for _, noreuse := range []bool{false, true} {
		arena := sprinkler.NewDeviceArena()
		arena.RegisterSnapshot("warm", snap)
		runner := sprinkler.Runner{Workers: 4, Arena: arena, NoReuse: noreuse}
		for _, cr := range runner.Run(context.Background(), grid.Cells()) {
			if cr.Err != nil {
				t.Fatalf("noreuse=%v: cell %s: %v", noreuse, cr.Name, cr.Err)
			}
			cfg := base
			cfg.Scheduler = sprinkler.SchedulerKind(cr.Labels["scheduler"])
			ref, err := snap.NewDevice(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := runWorkload(t, ref, cr.Labels["workload"], 150, cr.Seed)
			got, err := json.Marshal(cr.Result)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != want {
				t.Errorf("noreuse=%v: cell %s diverged from direct hydration:\n want: %s\n got:  %s",
					noreuse, cr.Name, want, got)
			}
		}
	}
}

// TestGridSnapshotPreconditionConflict pins the both-warmups error.
func TestGridSnapshotPreconditionConflict(t *testing.T) {
	base := agedConfig(sprinkler.SPK3)
	raw := checkpointOf(t, base, 0.6, 0.2, 31)
	snap, err := sprinkler.ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	arena := sprinkler.NewDeviceArena()
	arena.RegisterSnapshot("warm", snap)
	grid := sprinkler.Grid{
		Base:         base,
		Workloads:    []string{"cfs0"},
		Requests:     50,
		Snapshot:     "warm",
		Precondition: &sprinkler.Precondition{FillFrac: 0.5, ChurnFrac: 0.1},
	}
	for _, cr := range (sprinkler.Runner{Arena: arena}).Run(context.Background(), grid.Cells()) {
		if cr.Err == nil || !strings.Contains(cr.Err.Error(), "both Snapshot and Precondition") {
			t.Errorf("cell %s: want both-warmups error, got %v", cr.Name, cr.Err)
		}
	}
}

// TestSessionWithSnapshot opens a Session hydrated from a snapshot and
// checks its drained Result equals a session that replayed the
// preconditioning, plus the option-misuse errors.
func TestSessionWithSnapshot(t *testing.T) {
	cfg := agedConfig(sprinkler.SPK2)
	raw := checkpointOf(t, cfg, 0.8, 0.25, 41)
	snap, err := sprinkler.ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	drive := func(sess *sprinkler.Session) string {
		t.Helper()
		for i := 0; i < 120; i++ {
			if err := sess.Submit(sprinkler.Request{LPN: int64(i * 8), Pages: 8, Write: i%3 == 0}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := sess.Drain(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	replayed, err := sprinkler.Open(cfg, sprinkler.WithPrecondition(sprinkler.Precondition{
		FillFrac: 0.8, ChurnFrac: 0.25, Seed: 41,
	}))
	if err != nil {
		t.Fatal(err)
	}
	want := drive(replayed)

	hydrated, err := sprinkler.Open(cfg, sprinkler.WithSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}
	if got := drive(hydrated); got != want {
		t.Errorf("snapshot-hydrated session diverged:\n replay:  %s\n restore: %s", want, got)
	}

	if _, err := sprinkler.Open(cfg, sprinkler.WithSnapshot(snap),
		sprinkler.WithPrecondition(sprinkler.Precondition{FillFrac: 0.5})); err == nil {
		t.Error("WithSnapshot + WithPrecondition did not error")
	}
	bad := cfg
	bad.QueueDepth = 8
	if _, err := sprinkler.Open(bad, sprinkler.WithSnapshot(snap)); err == nil {
		t.Error("incompatible session config did not error")
	}
}

// TestCheckpointDrainedDevice pins that the checkpoint boundary works on
// every quiescent state a device passes through publicly: fresh, after
// preconditioning, and after a completed run — and that each restores.
func TestCheckpointDrainedDevice(t *testing.T) {
	cfg := agedConfig(sprinkler.SPK3)
	dev, err := sprinkler.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkpoint := func(stage string) {
		t.Helper()
		var buf bytes.Buffer
		if err := dev.Checkpoint(&buf); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if _, err := sprinkler.RestoreDevice(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("%s: restore: %v", stage, err)
		}
	}
	checkpoint("fresh device")
	dev.Precondition(0.7, 0.3, 3)
	checkpoint("preconditioned device")
	_ = runWorkload(t, dev, "cfs0", 100, 9)
	checkpoint("drained device")
}
