package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"sprinkler"
)

// The aged-sweep workload: the Figure 17 aged platform (64 chips, GC
// active) is preconditioned once per set-up, checkpointed and decoded
// with ReadSnapshot. One round is a Grid of all five schedulers over a
// write-heavy trace (hm0) and a read-heavy one (hm1), every cell
// hydrated from the snapshot through a DeviceArena and run by
// Runner{Workers: 1}. GC victim selection and migration, snapshot
// hydration, source Reset and the four non-SPK3 schedulers do most of
// the work here and almost none in stream. hm1 (about 5% writes) stands
// for the read-heavy side rather than proj4 (about 1.5%): 2,000 proj4
// requests can carry too few writes to start a collection (seed 11 runs
// no GC at all), and every aged cell must engage GC.
const (
	agedRequests = 2000 // per cell
	agedSnapshot = "aged"
	agedFill     = 0.95
	agedChurn    = 0.5
)

// agedConfig is the Figure 17 platform at the experiments' reduced
// scale: small planes so preconditioning to 95% stays cheap and writes
// quickly push planes to the GC threshold.
func agedConfig() sprinkler.Config {
	cfg := sprinkler.Platform(64)
	cfg.Scheduler = sprinkler.SPK3
	cfg.BlocksPerPlane = 12
	cfg.PagesPerBlock = 32
	cfg.GCFreeTarget = 3
	cfg.LogicalPages = cfg.TotalPages() * 85 / 100
	return cfg
}

// agedSnapshotImage builds the aged device and its checkpoint, recording
// the set-up spans: precondition, checkpoint and the image's size.
func agedSnapshotImage(b *bench) (*sprinkler.Device, []byte, error) {
	dev, err := sprinkler.New(agedConfig())
	if err != nil {
		return nil, nil, err
	}
	t := time.Now()
	dev.Precondition(agedFill, agedChurn, b.seed)
	b.tr.since("ssd.precondition", t)
	var buf bytes.Buffer
	t = time.Now()
	err = dev.Checkpoint(&buf)
	b.tr.since("root.checkpoint", t)
	if err != nil {
		return nil, nil, err
	}
	b.snapshotMB = float64(buf.Len()) / (1 << 20)
	return dev, buf.Bytes(), nil
}

// readSnapshot decodes a checkpoint under the root.read_snapshot span.
func readSnapshot(b *bench, image []byte) (*sprinkler.DeviceSnapshot, error) {
	defer b.tr.since("root.read_snapshot", time.Now())
	return sprinkler.ReadSnapshot(bytes.NewReader(image))
}

type aged struct {
	cfg     sprinkler.Config
	dev     *sprinkler.Device // the preconditioned device itself
	runner  sprinkler.Runner
	cells   []sprinkler.Cell
	tallies []*tally // per cell; cells sharing a pooled source share one

	ref    *sprinkler.Result   // SPK3/hm0, hydrated, from verify
	first  []*sprinkler.Result // per cell, from the first timed round
	latest []*sprinkler.Result // per cell, from the latest round
}

func setupAged(ctx context.Context, b *bench) (workload, error) {
	a := &aged{cfg: agedConfig()}
	var image []byte
	var err error
	if a.dev, image, err = agedSnapshotImage(b); err != nil {
		return nil, err
	}
	snap, err := readSnapshot(b, image)
	if err != nil {
		return nil, err
	}
	arena := sprinkler.NewDeviceArena()
	arena.RegisterSnapshot(agedSnapshot, snap)
	a.runner = sprinkler.Runner{Workers: 1, Arena: arena}
	a.cells = sprinkler.Grid{
		Name:       "aged",
		Base:       a.cfg,
		Schedulers: sprinkler.Schedulers(),
		Workloads:  []string{"hm0", "hm1"},
		Requests:   agedRequests,
		Snapshot:   agedSnapshot,
		Seed:       b.seed,
	}.Cells()
	byKey := map[string]*tally{}
	for i := range a.cells {
		c := &a.cells[i]
		t := byKey[c.SourceKey]
		if t == nil {
			t = new(tally)
			byKey[c.SourceKey] = t
		}
		a.tallies = append(a.tallies, t)
		build := c.Source
		c.Source = func(seed uint64) (sprinkler.Source, error) {
			src, err := build(seed)
			if err != nil {
				return nil, err
			}
			return newCounting(src, t, &b.pulls), nil
		}
	}
	a.first = make([]*sprinkler.Result, len(a.cells))
	a.latest = make([]*sprinkler.Result, len(a.cells))
	return a, nil
}

// cellIndex finds the cell of a scheduler on a trace.
func (a *aged) cellIndex(sched sprinkler.SchedulerKind, trace string) int {
	for i, c := range a.cells {
		if c.Labels["scheduler"] == string(sched) && c.Labels["workload"] == trace {
			return i
		}
	}
	return -1
}

// verify runs SPK3/hm0 on the preconditioned device itself and then the
// same cell hydrated from the snapshot: the two must match byte for byte
// (restore ≡ replay). The hydrated Result is the sim_* reference.
func (a *aged) verify(ctx context.Context, b *bench) error {
	i := a.cellIndex(sprinkler.SPK3, "hm0")
	if i < 0 {
		return fmt.Errorf("grid has no SPK3/hm0 cell")
	}
	c := a.cells[i]
	src, err := c.Source(c.Seed)
	if err != nil {
		return err
	}
	replay, err := a.dev.Run(ctx, src)
	if err != nil {
		return err
	}
	b.setupCheck("aged replay run", errors.Join(checkResult(replay, *a.tallies[i], c.Config), checkGC(replay, true)))
	cr := a.runner.Run(ctx, a.cells[i:i+1])[0]
	if cr.Err != nil {
		return cr.Err
	}
	a.ref = cr.Result
	b.setupCheck("aged restore ≡ replay", sameResult(replay, a.ref))
	a.dev = nil
	return nil
}

// round runs every cell once, in grid order (scheduler-major, so VAS
// precedes SPK3 on each trace).
func (a *aged) round(ctx context.Context, b *bench) int64 {
	var ios int64
	for i := range a.cells {
		c := &a.cells[i]
		b.pulls.arm()
		t := time.Now()
		cr := a.runner.Run(ctx, a.cells[i:i+1])[0]
		b.tr.since("root.cell_run", t)
		// Hydration, source checkout and run start-up end where the
		// device takes its first request.
		if !b.pulls.first.IsZero() {
			b.tr.add("root.hydrate", b.pulls.first.Sub(t))
		}
		err := cr.Err
		if err == nil {
			err = a.check(i, cr.Result)
		}
		if b.op("aged cell "+c.Name, err) {
			ios += cr.Result.IOsCompleted
		}
	}
	return ios
}

// check verifies one cell's Result: against its source's tally, GC
// engaged, SPK3 at least as fast as VAS on the same trace (the paper's
// ordering), and the same Result as the cell's first timed run.
func (a *aged) check(i int, res *sprinkler.Result) error {
	c := a.cells[i]
	errs := []error{checkResult(res, *a.tallies[i], c.Config), checkGC(res, true)}
	if c.Labels["scheduler"] == string(sprinkler.SPK3) {
		if v := a.latest[a.cellIndex(sprinkler.VAS, c.Labels["workload"])]; v == nil || res.IOPS < v.IOPS {
			errs = append(errs, fmt.Errorf("SPK3 below VAS on %s", c.Labels["workload"]))
		}
	}
	if a.first[i] == nil {
		a.first[i] = res
	} else {
		errs = append(errs, sameResult(res, a.first[i]))
	}
	a.latest[i] = res
	return errors.Join(errs...)
}

func (a *aged) sim() *sprinkler.Result { return a.ref }

func (a *aged) layers(b *bench, m metrics) {
	snapshotLayers(b, m)
	m.set("root.hydrate_ms", b.tr.median("root.hydrate")*1e3, "ms")
	m.set("root.cell_run_s", b.tr.median("root.cell_run"), "s")
	for _, k := range sprinkler.Schedulers()[:4] {
		if r := a.latest[a.cellIndex(k, "hm0")]; r != nil {
			m.set("sched.iops_"+string(k), r.IOPS, "IOPS")
		}
	}
}

// snapshotLayers reports the set-up spans of building a warm snapshot.
func snapshotLayers(b *bench, m metrics) {
	m.set("ssd.precondition_s", b.tr.median("ssd.precondition"), "s")
	m.set("root.checkpoint_s", b.tr.median("root.checkpoint"), "s")
	m.set("root.read_snapshot_s", b.tr.median("root.read_snapshot"), "s")
	m.set("root.snapshot_mb", b.snapshotMB, "MB")
}

func (a *aged) close() {}
