package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// tracer records spans around the benchmark's calls into the program:
// while on, the duration of every span, by name (the per-layer figures
// are medians of them).
type tracer struct {
	on   bool
	durs map[string][]float64 // seconds
}

func newTracer() *tracer { return &tracer{durs: map[string][]float64{}} }

// since records the span name that began at start and ends now.
func (t *tracer) since(name string, start time.Time) { t.add(name, time.Since(start)) }

// add records a span of duration d.
func (t *tracer) add(name string, d time.Duration) {
	if t.on {
		t.durs[name] = append(t.durs[name], d.Seconds())
	}
}

// median is the median duration of every span named name, in seconds.
func (t *tracer) median(name string) float64 { return median(t.durs[name]) }

// modules are the program's layers a CPU sample can be charged to, plus
// the standard library (net/http, encoding/json and the rest), the Go
// runtime, and the benchmark's own code.
var modules = []string{
	"sim", "core", "sched", "ftl", "flash", "bus", "nvmhc", "ssd", "metrics",
	"trace", "req", "root", "serve", "stdlib", "runtime", "bench",
}

// moduleOf names the module a function belongs to.
func moduleOf(fn string) string {
	// The package path ends at the first dot after the last slash; cut
	// receiver and type-parameter text first, which may hold slashes.
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	pkg := head
	slash := strings.LastIndex(head, "/")
	if i := strings.Index(head[slash+1:], "."); i >= 0 {
		pkg = head[:slash+1+i]
	}
	switch {
	case pkg == "sprinkler":
		return "root"
	case strings.HasPrefix(pkg, "sprinkler/internal/serve"):
		return "serve"
	case strings.HasPrefix(pkg, "sprinkler/internal/"):
		name, _, _ := strings.Cut(strings.TrimPrefix(pkg, "sprinkler/internal/"), "/")
		for _, m := range modules[:11] {
			if m == name {
				return m
			}
		}
		return "bench"
	case pkg == "main" || strings.HasPrefix(pkg, "sprinkler"):
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "stdlib"
}

// moduleSelfTime merges CPU profiles with the Go toolchain's pprof and
// returns the CPU seconds charged to each module, every sample going to
// the module of its leaf frame (pprof's flat time per function).
func moduleSelfTime(ctx context.Context, profiles []string) (map[string]float64, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("no traced rounds")
	}
	args := append([]string{"tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0", "-unit=ns"}, profiles...)
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.Bytes())
	}
	// Rows read "flat flat% sum% cum cum% function [(inline)]", after a
	// header that ends with the column titles.
	self := map[string]float64{}
	rows := false
	for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
		f := strings.Fields(sc.Text())
		if !rows {
			rows = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ns, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof row %q: %w", sc.Text(), err)
		}
		fn := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		self[moduleOf(fn)] += ns / 1e9
	}
	if !rows {
		return nil, fmt.Errorf("go tool pprof printed no table: %s", out)
	}
	return self, nil
}
