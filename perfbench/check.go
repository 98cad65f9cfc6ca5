package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"sprinkler"
)

// busBytePeriodNS is the channel's transfer time per byte on the paper's
// platform (§5.1: ONFI 2.x, about 125 MB/s per channel). A run's host
// bandwidth can never exceed the channels' combined rate.
const busBytePeriodNS = 8

// tally counts what a source handed the simulator.
type tally struct {
	reqs, readPages, writePages int64
}

// countingSource wraps a workload source: it tallies requests and pages
// by direction, so a Result can be checked against what the simulator
// was actually given, and stamps each pull on the run's pull clock.
type countingSource struct {
	src   sprinkler.Source
	t     *tally
	clock *pullClock
}

func newCounting(src sprinkler.Source, t *tally, clock *pullClock) *countingSource {
	*t = tally{}
	return &countingSource{src: src, t: t, clock: clock}
}

func (c *countingSource) Next() (sprinkler.Request, bool) {
	r, ok := c.src.Next()
	if ok {
		c.t.reqs++
		if r.Write {
			c.t.writePages += int64(r.Pages)
		} else {
			c.t.readPages += int64(r.Pages)
		}
		c.clock.pull()
	}
	return r, ok
}

func (c *countingSource) Err() error {
	if e, ok := c.src.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// Reset rewinds the wrapped source and zeroes the tally, so a source the
// DeviceArena pools across sweep cells counts each cell afresh.
func (c *countingSource) Reset(seed uint64) error {
	*c.t = tally{}
	return sprinkler.ResetSource(c.src, seed)
}

// pullClock times the simulator's calls for its next request. Each
// interval between two pulls of one run is host time the simulator spent
// per request; the first pull after arm ends the run's start-up.
type pullClock struct {
	b     *bench
	last  time.Time
	first time.Time
}

func (p *pullClock) arm() { p.last, p.first = time.Time{}, time.Time{} }

func (p *pullClock) pull() {
	now := time.Now()
	if p.last.IsZero() {
		p.first = now
	} else {
		p.b.calls.add(int64(now.Sub(p.last)))
	}
	p.last = now
}

// checkResult checks a Result against the tally of its source and
// against properties every run has, whatever the scheduler.
func checkResult(res *sprinkler.Result, t tally, cfg sprinkler.Config) error {
	var errs []error
	page := int64(cfg.PageSize)
	if res.IOsCompleted != t.reqs {
		errs = append(errs, fmt.Errorf("completed %d I/Os, source gave %d", res.IOsCompleted, t.reqs))
	}
	if res.BytesRead != t.readPages*page || res.BytesWritten != t.writePages*page {
		errs = append(errs, fmt.Errorf("bytes read/written %d/%d, source gave %d/%d",
			res.BytesRead, res.BytesWritten, t.readPages*page, t.writePages*page))
	}
	if res.FailedIOs != 0 {
		errs = append(errs, fmt.Errorf("%d failed I/Os", res.FailedIOs))
	}
	if res.DurationNS <= 0 {
		errs = append(errs, fmt.Errorf("simulated duration %d ns", res.DurationNS))
	} else {
		bw := float64(res.BytesRead+res.BytesWritten) / float64(res.DurationNS) // bytes per ns
		if limit := float64(cfg.Channels) / busBytePeriodNS; bw >= limit {
			errs = append(errs, fmt.Errorf("bandwidth %.4g B/ns at or above the %d channels' bus rate %.4g B/ns", bw, cfg.Channels, limit))
		}
	}
	if !(res.P50LatencyNS <= res.P99LatencyNS && res.P99LatencyNS <= res.MaxLatencyNS) {
		errs = append(errs, fmt.Errorf("latency p50 %d, p99 %d, max %d out of order", res.P50LatencyNS, res.P99LatencyNS, res.MaxLatencyNS))
	}
	return errors.Join(errs...)
}

// checkGC checks that garbage collection ran (aged devices) or did not
// (pristine ones).
func checkGC(res *sprinkler.Result, aged bool) error {
	switch {
	case aged && (res.GCRuns == 0 || res.WriteAmplification <= 1):
		return fmt.Errorf("aged device ran %d GCs at write amplification %.4g", res.GCRuns, res.WriteAmplification)
	case !aged && res.GCRuns != 0:
		return fmt.Errorf("pristine device ran %d GCs", res.GCRuns)
	}
	return nil
}

// sameResult checks that two Results encode to the same JSON.
func sameResult(a, b *sprinkler.Result) error {
	ja, err := json.Marshal(a)
	if err != nil {
		return err
	}
	jb, err := json.Marshal(b)
	if err != nil {
		return err
	}
	if !bytes.Equal(ja, jb) {
		return fmt.Errorf("results differ:\n  %s\n  %s", ja, jb)
	}
	return nil
}
