package core

import (
	"bytes"
	"fmt"
	"testing"

	"d3t/internal/obs"
)

// TestObsDisabledByteIdentical pins the observability layer's passivity
// contract at the top of the stack: every registry figure renders
// byte-identically whether or not each sweep point carries an
// observability tree. Observation must never influence a decision, a
// delay, or an iteration order. The same holds for single runs with the
// resilience layer attached — a crash-and-rejoin plan, and a kill
// recovered from the write-ahead log — which share the loop's obs data
// path: the armed run must also have recorded hops and, under the crash,
// at least one fidelity-violation duration.
func TestObsDisabledByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep in -short mode")
	}
	for id, fn := range Figures() {
		id, fn := id, fn
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			render := func(obsOn bool) []byte {
				s := tinyScale()
				s.Obs = obsOn
				fig, err := fn(s)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := fig.Fprint(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			off, on := render(false), render(true)
			if !bytes.Equal(off, on) {
				t.Errorf("figure %s differs with obs enabled:\n--- obs off ---\n%s\n--- obs on ---\n%s", id, off, on)
			}
		})
	}
	for name, layered := range map[string]func(*Config){
		"crash": func(c *Config) { c.Faults = "crash:max@100+50" },
		"kill+durability": func(c *Config) {
			c.Faults = "kill:max@60+80"
			c.Durability = DurabilityConfig{Dir: t.TempDir(), SnapshotEvery: 16, Fsync: "never"}
		},
	} {
		name, layered := name, layered
		t.Run("run/"+name, func(t *testing.T) {
			run := func(tree *obs.Tree) string {
				cfg := tinyScale().base()
				layered(&cfg) // a fresh log directory per run
				cfg.Obs = tree
				out, err := RunExperiment(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("%v %v %+v %+v", out.Fidelity, out.SourceUtilization, out.Stats, *out.Resilience)
			}
			tree := obs.NewTree()
			if off, on := run(nil), run(tree); off != on {
				t.Errorf("outcome differs with obs enabled:\n off %s\n on  %s", off, on)
			}
			hop, srcLat, _, violation := tree.Merged()
			if hop.Count == 0 || srcLat.Count == 0 {
				t.Errorf("armed %s run recorded %d hops, %d source latencies", name, hop.Count, srcLat.Count)
			}
			if name == "crash" && violation.Count == 0 {
				t.Error("armed crash run recorded no violation duration")
			}
			var received uint64
			for _, n := range tree.Snapshot(0).Nodes {
				received += n.Counters.Received
			}
			if received == 0 {
				t.Errorf("armed %s run attached no node-core counters", name)
			}
		})
	}
}

// TestOutcomeObsSnapshot checks the plumbing from Config.Obs to
// Outcome.Obs: an armed run returns the tree's horizon snapshot with the
// dissemination layer's counters populated, and an unarmed run returns
// nil.
func TestOutcomeObsSnapshot(t *testing.T) {
	s := tinyScale()
	s.Obs = true
	out, err := RunExperiment(s.base())
	if err != nil {
		t.Fatal(err)
	}
	if out.Obs == nil {
		t.Fatal("armed run returned no obs snapshot")
	}
	if out.Obs.NowMicros == 0 {
		t.Error("snapshot not taken at the run horizon")
	}
	var received uint64
	for _, n := range out.Obs.Nodes {
		received += n.Counters.Received
	}
	if received == 0 {
		t.Error("no updates recorded across the overlay")
	}

	plain, err := RunExperiment(tinyScale().base())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Obs != nil {
		t.Errorf("unarmed run returned an obs snapshot: %+v", plain.Obs)
	}
}
