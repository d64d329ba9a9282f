package main

import (
	"flag"
	"reflect"
	"slices"
	"strings"
	"testing"

	"d3t/internal/core"
)

// TestParseArgs pins the Config each command line parses into.
func TestParseArgs(t *testing.T) {
	def := core.Default
	tests := []struct {
		args    string
		want    func() core.Config
		wantErr string
	}{
		{args: "", want: def},
		{args: "-repos 50", want: func() core.Config {
			c := def()
			c.Repositories = 50 // the network keeps -routers' value
			return c
		}},
		{args: "-seed 7", want: func() core.Config { c := def(); c.Seed = 7; return c }},
		{args: "-query avg(w=5;ITEM000,ITEM001)@0.05 -query diff(ITEM000,ITEM001)@0.1!client", want: func() core.Config {
			c := def()
			c.Queries = []string{"avg(w=5;ITEM000,ITEM001)@0.05", "diff(ITEM000,ITEM001)@0.1!client"}
			return c
		}},
		{args: "-durability-dir wal -snapshot-every 64 -fsync always", want: func() core.Config {
			c := def()
			c.Durability = core.DurabilityConfig{Dir: "wal", SnapshotEvery: 64, Fsync: "always"}
			return c
		}},
		{args: "-durability-dir wal", want: func() core.Config {
			c := def()
			c.Durability.Dir = "wal" // SnapshotEvery 0: the wal default of 256
			return c
		}},
		{args: "-workload csv", wantErr: "csv workload needs WorkloadPath"},
		{args: "-virtual-sessions 1000 -scenario flash:at=0.3,frac=0.5", want: func() core.Config {
			c := def()
			c.VirtualSessions, c.Scenario = 1000, "flash:at=0.3,frac=0.5"
			return c
		}},
		{args: "-scenario flash:at=0.3,frac=0.5", wantErr: "needs VirtualSessions > 0"},
		{args: "-workload bursty -batch 5 -clients 40 -session-cap 4 -items-per-client 2 -faults churn:2", want: func() core.Config {
			c := def()
			c.Workload, c.BatchTicks, c.Faults = "bursty", 5, "churn:2"
			c.Clients, c.SessionCap, c.ItemsPerClient = 40, 4, 2
			return c
		}},
		{args: "-repos 12 -routers 36 -items 10 -ticks 300 -T 0.8 -coop 3 -protocol centralized -shards 4", want: func() core.Config {
			c := def()
			c.Repositories, c.Routers, c.Items, c.Ticks = 12, 36, 10, 300
			c.StringentFrac, c.CoopDegree, c.Protocol, c.Shards = 0.8, 3, "centralized", 4
			return c
		}},
		{args: "-shards 4 -faults churn:2", wantErr: "cannot be sharded"},
	}
	for _, tt := range tests {
		t.Run(tt.args, func(t *testing.T) {
			got, _, err := parseArgs(strings.Fields(tt.args))
			if tt.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if want := tt.want(); !reflect.DeepEqual(got, want) {
				t.Errorf("parsed\n  %+v\nwant\n  %+v", got, want)
			}
		})
	}
}

// TestFlagSet pins d3tsim's flags: the shared Config flags plus its own.
func TestFlagSet(t *testing.T) {
	want := []string{"T", "batch", "builder", "clients", "comm", "comp", "coop", "detect",
		"durability-dir", "faults", "fsync", "items", "items-per-client", "k", "obs", "obs-interval",
		"p", "pref", "protocol", "query", "quiet", "repos", "routers", "scenario", "seed",
		"session-cap", "session-churn", "shards", "snapshot-every", "subscribe", "ticks", "v",
		"virtual-sessions", "workload", "workload-path"}
	var got []string
	newFlagSet(new(core.Config), new(options)).VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if !slices.Equal(got, want) {
		t.Errorf("flags\n  %v\nwant\n  %v", got, want)
	}
}
