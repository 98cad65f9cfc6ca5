package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"sprinkler"
)

// The stream workload: one pristine 64-chip SPK3 device with a bounded
// host backlog, fed an open-loop Poisson msnfs1 stream far above its
// service rate through Device.Run. One round is one pass over the whole
// trace on the same device after Reset. The serial event kernel does
// nearly all the work; there is no GC, no snapshot and no HTTP.
const (
	streamRequests = 60_000
	streamRate     = 200_000 // requests per simulated second
	streamBacklog  = 4096
)

type stream struct {
	cfg  sprinkler.Config
	dev  *sprinkler.Device
	src  *countingSource
	t    tally
	warm *sprinkler.Result // the warm-up pass on the fresh device
}

func setupStream(ctx context.Context, b *bench) (workload, error) {
	s := &stream{cfg: sprinkler.Platform(64)}
	s.cfg.Scheduler = sprinkler.SPK3
	s.cfg.MaxBacklog = streamBacklog
	gen, err := s.cfg.NewWorkloadSource(sprinkler.WorkloadSpec{Name: "msnfs1", Seed: b.seed})
	if err != nil {
		return nil, err
	}
	s.src = newCounting(sprinkler.Limit(sprinkler.Poisson(gen, streamRate, b.seed), streamRequests), &s.t, &b.pulls)

	t := time.Now()
	s.dev, err = sprinkler.New(s.cfg)
	b.tr.since("root.new", t)
	if err != nil {
		return nil, err
	}
	// The warm-up pass is untimed: a device's first pass runs slower than
	// its later ones (first touches of the mapping tables).
	t = time.Now()
	s.warm, err = s.dev.Run(ctx, s.src)
	b.tr.since("root.warmup", t)
	if err != nil {
		return nil, err
	}
	b.setupCheck("stream warm-up pass", errors.Join(checkResult(s.warm, s.t, s.cfg), checkGC(s.warm, false)))
	return s, nil
}

// round runs one pass: Reset the device and the source, replay the trace,
// and require the Result to equal the warm-up's (Reset ≡ fresh).
func (s *stream) round(ctx context.Context, b *bench) int64 {
	if err := s.dev.Reset(s.cfg); err != nil {
		b.op("stream pass", fmt.Errorf("reset: %w", err))
		return 0
	}
	if err := s.src.Reset(b.seed); err != nil {
		b.op("stream pass", fmt.Errorf("source reset: %w", err))
		return 0
	}
	b.pulls.arm()
	res, err := s.dev.Run(ctx, s.src)
	if err == nil {
		err = errors.Join(checkResult(res, s.t, s.cfg), checkGC(res, false), sameResult(res, s.warm))
	}
	if !b.op("stream pass", err) {
		return 0
	}
	return res.IOsCompleted
}

func (s *stream) sim() *sprinkler.Result { return s.warm }

// verify has nothing to add: every set-up checks its own warm-up pass.
func (s *stream) verify(context.Context, *bench) error { return nil }

func (s *stream) layers(b *bench, m metrics) {
	m.set("root.new_s", b.tr.median("root.new"), "s")
	m.set("root.warmup_s", b.tr.median("root.warmup"), "s")
}

func (s *stream) close() {}
