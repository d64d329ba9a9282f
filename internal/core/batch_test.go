package core

import (
	"reflect"
	"testing"

	"d3t/internal/trace"
)

// TestBatchComposesWithLayers pins batching as preprocessing: whatever
// layer a run attaches, BatchTicks: 5 must give exactly the outcome of an
// unbatched run over the coalesced trace set.
func TestBatchComposesWithLayers(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(c *Config, dir string)
	}{
		{"churn-faults", func(c *Config, _ string) { c.Faults = "churn:2:30" }},
		{"clients-session-churn", func(c *Config, _ string) { c.Clients = 40; c.SessionChurn = "churn:10:20" }},
		{"virtual-scenario", func(c *Config, _ string) {
			c.VirtualSessions, c.SessionCap, c.Scenario = 300, 25, "flash:at=0.3,frac=0.5,burst=0.2"
		}},
		{"queries", func(c *Config, _ string) {
			c.Queries = []string{"avg(w=3;ITEM000,ITEM001,ITEM002)@0.1", "diff(ITEM003,ITEM004)@0.2!client"}
		}},
		{"kill-durability", func(c *Config, dir string) {
			c.Faults = "kill:max@60+80"
			c.Durability = DurabilityConfig{Dir: dir, SnapshotEvery: 64, Fsync: "never"}
		}},
		{"queueing", func(c *Config, _ string) { c.Queueing = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyScale().base()
			net, err := cfg.network()
			if err != nil {
				t.Fatal(err)
			}
			traces, err := cfg.traces()
			if err != nil {
				t.Fatal(err)
			}
			run := func(batch int, traces []*trace.Trace) *Outcome {
				c := cfg
				tc.mutate(&c, t.TempDir())
				c.BatchTicks = batch
				if err := c.Validate(); err != nil {
					t.Fatal(err)
				}
				out, err := runExperimentWith(c, net, traces)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			coalesced, folded := trace.CoalesceTraces(traces, 5)
			batched, pre := run(5, traces), run(0, coalesced)
			if batched.Coalesced != folded || folded == 0 {
				t.Fatalf("Outcome.Coalesced = %d, CoalesceTraces folded %d; want equal and > 0", batched.Coalesced, folded)
			}
			for _, f := range []struct {
				name      string
				got, want any
			}{
				{"Fidelity", batched.Fidelity, pre.Fidelity},
				{"Stats", batched.Stats, pre.Stats},
				{"Resilience", batched.Resilience, pre.Resilience},
				{"Clients", batched.Clients, pre.Clients},
				{"VServe", batched.VServe, pre.VServe},
				{"Queries", batched.Queries, pre.Queries},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Errorf("%s: BatchTicks 5 gave %+v, the coalesced feed %+v", f.name, f.got, f.want)
				}
			}
		})
	}
}
