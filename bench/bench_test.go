package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// smokeParams are millisecond phases: the tests exercise the harness and
// the oracle and assert nothing about time.
func smokeParams(t *testing.T, traced bool) params {
	dir := t.TempDir()
	return params{seed: 3, measure: 400 * time.Millisecond, setups: 1, drain: 5 * time.Second,
		traced: traced, outDir: dir, tmpDir: dir}
}

var smokeScale = simScale{ticks: 200, sessions: 2000}

// TestSmoke runs every workload, untraced and traced, and requires a
// correct verdict and a value for every declared metric.
func TestSmoke(t *testing.T) {
	for _, traced := range []bool{false, true} {
		table, mode := endToEnd, "untraced"
		if traced {
			table, mode = perLayer, "traced"
		}
		for _, wl := range workloads {
			t.Run(mode+"/"+wl.Name, func(t *testing.T) {
				res, _, err := runWorkload(wl.Name, smokeParams(t, traced), smokeScale)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct() {
					t.Errorf("attempted %d, failed %d: %v", res.attempted, res.failed, res.notes)
				}
				known := make(map[string]bool)
				for _, m := range table {
					known[m.Name] = true
					if v, ok := res.values[m.Name]; !traced && (!ok || v <= 0) {
						t.Errorf("end-to-end metric %s = %v, want a positive value", m.Name, v)
					}
				}
				for name := range res.values {
					if !known[name] {
						t.Errorf("metric %s is reported but not declared", name)
					}
				}
				var line struct {
					Correct bool
					Metrics map[string]struct{ Value float64 }
				}
				if err := json.Unmarshal([]byte(res.jsonLine(table)), &line); err != nil || len(line.Metrics) != len(table) {
					t.Errorf("result line has %d metrics (error %v), want %d", len(line.Metrics), err, len(table))
				}
			})
		}
	}
}

// lossySystem drops one live delivery on its way to the first session.
type lossySystem struct {
	system
	armed bool
}

func (s *lossySystem) subscribe(spec sessionSpec) (clientSession, error) {
	cs, err := s.system.subscribe(spec)
	if err != nil || s.armed {
		return cs, err
	}
	s.armed = true
	return &lossySession{clientSession: cs}, nil
}

type lossySession struct {
	clientSession
	seen int
}

func (s *lossySession) drain(fn func(string, float64, bool)) {
	s.clientSession.drain(func(item string, v float64, resync bool) {
		if !resync {
			if s.seen++; s.seen == 10 {
				return
			}
		}
		fn(item, v, resync)
	})
}

// TestDroppedDeliveryFailsTheRun loses a single delivery between the
// cluster and the benchmark. Matching by value must count exactly that
// one as missing (plus the stale view it may leave) and stay aligned for
// every later delivery.
func TestDroppedDeliveryFailsTheRun(t *testing.T) {
	wl := transportWorkloads[0]
	start := wl.start
	wl.start = func(w *world, dir string) (system, error) {
		sys, err := start(w, dir)
		return &lossySystem{system: sys}, err
	}
	res, err := runTransport(wl, smokeParams(t, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.correct() || res.failed < 1 || res.failed > 2 {
		t.Errorf("one dropped delivery gave %d failures of %d operations (%v), want 1 or 2", res.failed, res.attempted, res.notes)
	}
}

// TestWorldIsSeeded holds the generator to its contract: one seed, one
// world; another seed, another.
func TestWorldIsSeeded(t *testing.T) {
	draw := func(seed int64) ([]update, *world) {
		w, err := newWorld(seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		ups := make([]update, 256)
		w.gen.fill(ups)
		return ups, w
	}
	a, wa := draw(7)
	b, wb := draw(7)
	c, _ := draw(8)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(wa.sessions, wb.sessions) || wa.overlaySeed != wb.overlaySeed {
		t.Error("seed 7 drew two different worlds")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 7 and 8 drew the same updates")
	}
	for _, s := range wa.sessions {
		if s.depth != worldDepth {
			t.Errorf("session %s sits at depth %d, want %d", s.name, s.depth, worldDepth)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in spec.go.
func TestBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != benchmarkJSON() {
		t.Error("BENCHMARK.json differs from the tables in spec.go; regenerate it with -spec")
	}
}
