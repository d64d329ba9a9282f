package core

import (
	"bytes"
	"strings"
	"testing"
)

// tinyScale keeps unit tests fast while preserving the mechanisms.
func tinyScale() Scale {
	base := Default()
	base.Repositories, base.Routers, base.Items, base.Ticks = 15, 45, 12, 300
	return Scale{
		Base:       base,
		CoopGrid:   []int{1, 4, 15},
		TValues:    []float64{0, 100},
		CommGridMs: []float64{1, 125},
		CompGridMs: []float64{-1, 25},
	}
}

func TestRunExperimentBaseCase(t *testing.T) {
	cfg := tinyScale().base()
	out, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Fidelity <= 0.5 || out.Fidelity > 1 {
		t.Errorf("base-case fidelity %v implausible", out.Fidelity)
	}
	if out.CoopDegreeUsed < 1 {
		t.Errorf("controlled cooperation degree %d", out.CoopDegreeUsed)
	}
	if out.Stats.Messages == 0 {
		t.Error("no messages were sent")
	}
	if out.String() == "" {
		t.Error("empty outcome string")
	}
}

func TestRunExperimentDeterministic(t *testing.T) {
	cfg := tinyScale().base()
	a, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fidelity != b.Fidelity || a.Stats.Messages != b.Stats.Messages {
		t.Errorf("same config produced different outcomes: %v vs %v / %d vs %d msgs",
			a.Fidelity, b.Fidelity, a.Stats.Messages, b.Stats.Messages)
	}
}

func TestConfigValidation(t *testing.T) {
	for i, tc := range []struct {
		mutate func(*Config)
		want   string // a substring of the error; "" accepts any error
	}{
		{func(c *Config) { c.Repositories = 0 }, ""},
		{func(c *Config) { c.Items = 0 }, ""},
		{func(c *Config) { c.Ticks = 1 }, ""},
		{func(c *Config) { c.SubscribeProb = 0 }, ""},
		{func(c *Config) { c.SubscribeProb = 1.5 }, ""},
		{func(c *Config) { c.StringentFrac = -0.1 }, ""},
		{func(c *Config) { c.CoopDegree = -1 }, ""},
		{func(c *Config) { c.Builder = "mystery" }, ""},
		{func(c *Config) { c.Protocol = "mystery" }, ""},
		{func(c *Config) { c.Preference = "P3" }, ""},
		// Sharding is exact only while items stay independent; every
		// layer that couples them is rejected by name.
		{func(c *Config) { c.Shards = 2; c.Queueing = true }, "Queueing"},
		{func(c *Config) { c.Shards = 2; c.Faults = "churn:2" }, "Faults"},
		{func(c *Config) { c.Shards = 2; c.Durability.Dir = "wal" }, "Durability"},
		{func(c *Config) { c.Shards = 2; c.Clients = 10 }, "Clients"},
		{func(c *Config) { c.Shards = 2; c.VirtualSessions = 10 }, "VirtualSessions"},
		{func(c *Config) { c.Shards = 2; c.Queries = []string{"avg(ITEM000,ITEM001)@0.1"} }, "Queries"},
	} {
		cfg := Default()
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("bad config %d: Validate() = %v, want an error containing %q", i, err, tc.want)
		}
	}
	if err := Default().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	sharded := Default()
	sharded.Shards, sharded.BatchTicks = 8, 5
	if err := sharded.Validate(); err != nil {
		t.Errorf("sharded, batched plain config rejected: %v", err)
	}
}

func TestZeroDelayPerfectFidelityEndToEnd(t *testing.T) {
	cfg := tinyScale().base()
	cfg.CommDelayMs = -1 // exactly zero
	cfg.CompDelayMs = -1
	cfg.StringentFrac = 1
	for _, proto := range []string{"distributed", "centralized"} {
		cfg.Protocol = proto
		out, err := RunExperiment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if out.Fidelity != 1 {
			t.Errorf("%s fidelity %v with zero delays, want exactly 1", proto, out.Fidelity)
		}
	}
}

// TestFigure3UShape asserts the paper's headline claim at test scale: for
// stringent coherency mixes, both no cooperation (chain) and full
// cooperation (star) lose more fidelity than a moderate degree.
func TestFigure3UShape(t *testing.T) {
	s := SmallScale()
	fig, err := Figure3(s)
	if err != nil {
		t.Fatal(err)
	}
	var t100 Series
	for _, se := range fig.Series {
		if se.Label == "T=100" {
			t100 = se
		}
	}
	if len(t100.Y) == 0 {
		t.Fatal("missing T=100 series")
	}
	first, last := t100.Y[0], t100.Y[len(t100.Y)-1]
	min := t100.Y[0]
	minIdx := 0
	for i, y := range t100.Y {
		if y < min {
			min, minIdx = y, i
		}
	}
	if minIdx == 0 || minIdx == len(t100.Y)-1 {
		t.Errorf("T=100 minimum at the boundary (index %d of %v): not U-shaped", minIdx, t100.Y)
	}
	if first <= min || last <= min {
		t.Errorf("U-shape violated: first %.2f, min %.2f, last %.2f", first, min, last)
	}
	// The optimum should fall in the paper's 3-20 dependents band.
	if x := t100.X[minIdx]; x < 2 || x > 20 {
		t.Errorf("minimum at degree %v, paper reports 3-20", x)
	}
	// Stringency ordering: T=100 should lose at least as much as T=0
	// everywhere.
	var t0 Series
	for _, se := range fig.Series {
		if se.Label == "T=0" {
			t0 = se
		}
	}
	for i := range t0.Y {
		if t0.Y[i] > t100.Y[i]+0.5 {
			t.Errorf("T=0 loss %.2f above T=100 loss %.2f at degree %v",
				t0.Y[i], t100.Y[i], t0.X[i])
		}
	}
}

// TestFigure7aLShape: with controlled cooperation the curve must flatten —
// loss at the largest offered degree stays within noise of the loss at the
// Eq. 2 degree, instead of rising as in Figure 3.
func TestFigure7aLShape(t *testing.T) {
	s := SmallScale()
	fig, err := Figure7a(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, se := range fig.Series {
		if se.Label != "T=100" {
			continue
		}
		last := se.Y[len(se.Y)-1]
		mid := se.Y[2] // past the knee at small scale
		if last > mid*1.5+0.5 {
			t.Errorf("controlled cooperation curve rises at the tail: mid %.2f -> last %.2f", mid, last)
		}
		if se.Y[0] <= last {
			t.Errorf("no knee: loss at degree 1 (%.2f) not above plateau (%.2f)", se.Y[0], last)
		}
	}
}

// TestFigure6CompDelayMonotone: without cooperation, loss grows with the
// computational delay for stringent mixes.
func TestFigure6CompDelayMonotone(t *testing.T) {
	s := tinyScale()
	fig, err := Figure6(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, se := range fig.Series {
		if se.Label != "T=100" {
			continue
		}
		if se.Y[len(se.Y)-1] <= se.Y[0] {
			t.Errorf("T=100 loss not increasing with comp delay: %v", se.Y)
		}
	}
}

func TestFigure4Rows(t *testing.T) {
	fig, err := Figure4(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(fig.Rows))
	}
	// naive-eq3 must lose; the exact algorithms must not.
	if fig.Rows[0][1] == "0.00" {
		t.Errorf("naive-eq3 row shows zero loss: %v", fig.Rows[0])
	}
	for _, row := range fig.Rows[1:] {
		if row[1] != "0.00" {
			t.Errorf("exact protocol %s lost fidelity: %v", row[0], row)
		}
	}
}

func TestFigure11Comparison(t *testing.T) {
	fig, err := Figure11(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(fig.Rows))
	}
	if fig.Rows[0][0] != "centralized" || fig.Rows[1][0] != "distributed" {
		t.Fatalf("unexpected row order: %v", fig.Rows)
	}
}

func TestScalabilityWithinBounds(t *testing.T) {
	fig, err := Scalability(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(fig.Rows))
	}
	if !strings.Contains(fig.Notes[0], "loss increase") {
		t.Errorf("missing loss-increase note: %v", fig.Notes)
	}
}

func TestAllFiguresRunAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep in -short mode")
	}
	s := tinyScale()
	for id, fn := range Figures() {
		id, fn := id, fn
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			fig, err := fn(s)
			if err != nil {
				t.Fatal(err)
			}
			if fig.ID != id {
				t.Errorf("figure reports id %q, want %q", fig.ID, id)
			}
			if len(fig.Series) == 0 && len(fig.Rows) == 0 {
				t.Error("figure produced neither series nor rows")
			}
			var buf bytes.Buffer
			if err := fig.Fprint(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), fig.ID) {
				t.Error("printed output missing figure id")
			}
		})
	}
}

func TestFigureIDsSortedAndComplete(t *testing.T) {
	ids := FigureIDs()
	if len(ids) != len(Figures()) {
		t.Fatalf("FigureIDs returned %d ids, registry has %d", len(ids), len(Figures()))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Errorf("ids not sorted: %v", ids)
		}
	}
	for _, want := range []string{"table1", "fig3", "fig11", "scale", "ext-pull"} {
		found := false
		for _, id := range ids {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Errorf("registry missing %q", want)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	curve := &FigureResult{
		ID: "x", XLabel: "deg",
		Series: []Series{{Label: "T=0", X: []float64{1, 2}, Y: []float64{0.5, 0.25}}},
	}
	var buf bytes.Buffer
	if err := curve.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "deg,T=0\n1,0.5000\n2,0.2500\n"
	if buf.String() != want {
		t.Errorf("curve csv = %q, want %q", buf.String(), want)
	}
	table := &FigureResult{
		ID: "y", Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}},
	}
	buf.Reset()
	if err := table.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "a,b\n1,2\n" {
		t.Errorf("table csv = %q", buf.String())
	}
}
