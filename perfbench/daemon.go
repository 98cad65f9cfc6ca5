package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"sprinkler"
	"sprinkler/internal/serve"
	"sprinkler/internal/serve/client"
)

// The daemon workload: an in-process sprinklerd server behind a loopback
// listener, driven by one client (one keep-alive connection) in a closed
// loop of small sessions: open, one server-side feed, fixed advance
// windows, drain. Half the sessions open pristine 64-chip devices; the
// other half open with warmState from the aged snapshot set-up writes
// into the server's snapshot directory. Each call simulates little, so
// HTTP handling, JSON encoding, session locking and arena checkout
// (device Reset, FTL table reset) dominate.
const (
	daemonSessions  = 8   // per round, alternating pristine and warm
	daemonRequests  = 256 // per session
	daemonAdvances  = 8
	daemonWindowNS  = 250_000
	daemonSnapFile  = "aged.snap"
	daemonRefReqs   = 8192 // the reference session, drained once per run
	daemonRefRate   = 200_000
	daemonRefSeedIx = 1000 // SubSeed index of the reference session's seed
)

type daemonSession struct {
	warm     bool
	seed     uint64
	workload string
	cfg      sprinkler.Config // what the server runs the session on
	t        tally            // what the server-side feed will generate
	ref      *sprinkler.Result
}

type daemon struct {
	dir    string
	srv    *serve.Server
	hs     *http.Server
	served chan error
	c      *client.Client
	opts   serve.Options

	sessions []*daemonSession
	ref      *sprinkler.Result // the reference session, drained over HTTP
}

func setupDaemon(ctx context.Context, b *bench) (workload, error) {
	_, image, err := agedSnapshotImage(b)
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: filepath.Join(b.outDir, fmt.Sprintf("daemon-%d", os.Getpid()))}
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(d.dir, daemonSnapFile), image, 0o644); err != nil {
		return nil, err
	}
	// The benchmark decodes the image itself too: the warm sessions'
	// platform comes from it.
	snap, err := readSnapshot(b, image)
	if err != nil {
		return nil, err
	}

	d.opts = serve.DefaultOptions()
	d.opts.BaseConfig = sprinkler.Platform(64)
	d.opts.SnapshotDir = d.dir
	d.opts.IdleExpiry = 0
	d.srv = serve.NewServer(d.opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = d.srv.Close(ctx) // nothing is open yet; the listen error is the one to report
		return nil, err
	}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(ln) }()
	d.c = client.New("http://" + ln.Addr().String())

	for i := range daemonSessions {
		s := &daemonSession{warm: i%2 == 1, seed: sprinkler.SubSeed(b.seed, i), workload: "msnfs1", cfg: d.pristineConfig()}
		if s.warm {
			s.workload, s.cfg = "hm0", snap.Config()
			s.cfg.MaxBacklog = d.opts.MaxBacklog
		}
		if s.t, err = countSpec(b, sprinkler.WorkloadSpec{Name: s.workload, Requests: daemonRequests}.Spec(), s.cfg, s.seed); err != nil {
			d.close()
			return nil, err
		}
		d.sessions = append(d.sessions, s)
	}
	// First touches: the server builds one device of each topology and
	// decodes the snapshot on the first warm open.
	for i := range 2 {
		d.session(ctx, b, i, false)
	}
	return d, nil
}

// pristineConfig is the configuration the server runs a session opened
// without platform knobs on: its base platform under the server's
// backlog budget.
func (d *daemon) pristineConfig() sprinkler.Config {
	cfg := d.opts.BaseConfig
	cfg.MaxBacklog = d.opts.MaxBacklog
	return cfg
}

// countSpec tallies the requests a source spec generates for cfg and seed.
func countSpec(b *bench, spec sprinkler.SourceSpec, cfg sprinkler.Config, seed uint64) (tally, error) {
	src, err := spec.New(cfg, seed)
	if err != nil {
		return tally{}, err
	}
	var t tally
	for c := newCounting(src, &t, &b.pulls); ; {
		if _, ok := c.Next(); !ok {
			return t, nil
		}
	}
}

// call makes one HTTP call, recorded as a span. In the timed section (count
// set) its wall latency goes to the call log and it counts as one
// operation; in set-up a failure fails a set-up check.
func (d *daemon) call(b *bench, count bool, name string, f func() error) bool {
	if !count {
		name = "warmup." + name
	}
	t := time.Now()
	err := f()
	lat := time.Since(t)
	b.tr.add(name, lat)
	if !count {
		b.setupCheck(name, err)
		return err == nil
	}
	b.calls.add(int64(lat))
	return b.op(name, err)
}

// session runs session i to its end and returns the I/Os it completed.
// The drain's Result must match the tally of the feed, and the Result
// the same session drained the first time.
func (d *daemon) session(ctx context.Context, b *bench, i int, count bool) int64 {
	s := d.sessions[i]
	req := serve.OpenRequest{Seed: s.seed}
	open := "serve.open"
	if s.warm {
		req.WarmState, open = daemonSnapFile, "serve.open_warm"
	}
	var sess *client.Session
	if !d.call(b, count, open, func() (err error) { sess, err = d.c.Open(ctx, req); return err }) {
		return 0
	}
	ok := d.call(b, count, "serve.feed", func() error {
		fr, err := sess.Feed(ctx, serve.FeedSpec{
			Workload: &serve.WorkloadSpec{Name: s.workload, Requests: daemonRequests},
			Count:    daemonRequests,
		})
		if err == nil && fr.Fed != daemonRequests {
			err = fmt.Errorf("fed %d of %d requests", fr.Fed, daemonRequests)
		}
		return err
	})
	for k := 0; ok && k < daemonAdvances; k++ {
		ok = d.call(b, count, "serve.advance", func() error {
			_, err := sess.Advance(ctx, daemonWindowNS)
			return err
		})
	}
	if !ok {
		_ = sess.Discard(ctx) // best effort: the failure is already counted
		return 0
	}
	var res *sprinkler.Result
	ok = d.call(b, count, "serve.drain", func() (err error) {
		if res, err = sess.Drain(ctx); err != nil {
			return err
		}
		errs := []error{checkResult(res, s.t, s.cfg), checkGC(res, s.warm)}
		if s.ref == nil {
			s.ref = res
		} else {
			errs = append(errs, sameResult(res, s.ref))
		}
		return errors.Join(errs...)
	})
	if !ok {
		return 0
	}
	return res.IOsCompleted
}

func (d *daemon) round(ctx context.Context, b *bench) int64 {
	var ios int64
	for i := range d.sessions {
		ios += d.session(ctx, b, i, true)
	}
	return ios
}

// verify drains one larger reference session over HTTP and the same
// spec and seed in-process through Open/Feed/Advance/Drain; the two
// Results must be identical. The HTTP one is the sim_* reference.
func (d *daemon) verify(ctx context.Context, b *bench) error {
	seed := sprinkler.SubSeed(b.seed, daemonRefSeedIx)
	cfg := d.pristineConfig()
	spec := sprinkler.WorkloadSpec{Name: "msnfs1", Requests: daemonRefReqs}.Spec().WithPoisson(daemonRefRate)

	sess, err := d.c.Open(ctx, serve.OpenRequest{Seed: seed})
	if err != nil {
		return err
	}
	if sess.Info.MaxBacklog != cfg.MaxBacklog || sess.Info.Chips != cfg.Channels*cfg.ChipsPerChan {
		b.setupCheck("daemon reference open", fmt.Errorf("server resolved %+v", sess.Info))
	}
	if _, err := sess.Feed(ctx, serve.FeedSpec{
		Workload:    &serve.WorkloadSpec{Name: "msnfs1", Requests: daemonRefReqs},
		PoissonRate: daemonRefRate,
		Count:       daemonRefReqs,
	}); err != nil {
		return err
	}
	for range daemonAdvances {
		if _, err := sess.Advance(ctx, daemonWindowNS); err != nil {
			return err
		}
	}
	if d.ref, err = sess.Drain(ctx); err != nil {
		return err
	}

	local, err := sprinkler.Open(cfg)
	if err != nil {
		return err
	}
	src, err := spec.New(cfg, seed)
	if err != nil {
		return err
	}
	var t tally
	if _, err := local.Feed(newCounting(src, &t, &b.pulls), daemonRefReqs); err != nil {
		return err
	}
	for range daemonAdvances {
		if err := local.Advance(daemonWindowNS); err != nil {
			return err
		}
	}
	want, err := local.Drain(ctx)
	if err != nil {
		return err
	}
	b.setupCheck("daemon reference session", errors.Join(checkResult(d.ref, t, cfg), checkGC(d.ref, false)))
	b.setupCheck("daemon HTTP ≡ in-process", sameResult(d.ref, want))
	return nil
}

func (d *daemon) sim() *sprinkler.Result { return d.ref }

func (d *daemon) layers(b *bench, m metrics) {
	snapshotLayers(b, m)
	for _, name := range []string{"open", "open_warm", "feed", "advance", "drain"} {
		m.set("serve."+name+"_ms", b.tr.median("serve."+name)*1e3, "ms")
	}
}

// close drains the server, stops the listener, waits for the serving
// goroutine to return and removes the snapshot directory.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.srv.Close(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: closing the server:", err)
	}
	if err := d.hs.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: closing the listener:", err)
	}
	if err := <-d.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: serving:", err)
	}
	if err := os.RemoveAll(d.dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}
