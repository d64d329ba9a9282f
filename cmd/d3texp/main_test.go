package main

import (
	"flag"
	"reflect"
	"slices"
	"strings"
	"testing"

	"d3t/internal/core"
)

// TestParseArgs pins the Scale each command line parses into.
func TestParseArgs(t *testing.T) {
	small, paper := core.SmallScale, core.PaperScale
	tests := []struct {
		args    string
		want    func() core.Scale
		wantErr string
	}{
		{args: "", want: small},
		{args: "-repos 50", want: func() core.Scale {
			s := small()
			s.Base.Repositories, s.Base.Routers = 50, 300
			return s
		}},
		{args: "-scale paper -repos 50", want: func() core.Scale {
			s := paper()
			s.Base.Repositories, s.Base.Routers = 50, 300
			return s
		}},
		{args: "-repos 50 -scale paper", want: func() core.Scale {
			s := paper()
			s.Base.Repositories, s.Base.Routers = 50, 300
			return s
		}},
		{args: "-items 5 -ticks 100 -scale paper", want: func() core.Scale {
			s := paper()
			s.Base.Items, s.Base.Ticks = 5, 100
			return s
		}},
		{args: "-seed 7", want: func() core.Scale { s := small(); s.Base.Seed = 7; return s }},
		{args: "-query avg(w=5;ITEM000,ITEM001)@0.05 -query diff(ITEM000,ITEM001)@0.1!client", want: func() core.Scale {
			s := small()
			s.Base.Queries = []string{"avg(w=5;ITEM000,ITEM001)@0.05", "diff(ITEM000,ITEM001)@0.1!client"}
			return s
		}},
		{args: "-durability-dir wal -snapshot-every 64 -fsync always", want: func() core.Scale {
			s := small()
			s.Base.Durability = core.DurabilityConfig{Dir: "wal", SnapshotEvery: 64, Fsync: "always"}
			return s
		}},
		{args: "-workload csv", wantErr: "csv workload needs WorkloadPath"},
		{args: "-virtual-sessions 1000 -scenario flash:at=0.3,frac=0.5", want: func() core.Scale {
			s := small()
			s.Base.VirtualSessions, s.Base.Scenario = 1000, "flash:at=0.3,frac=0.5"
			return s
		}},
		{args: "-scenario flash:at=0.3,frac=0.5", wantErr: "needs VirtualSessions > 0"},
		{args: "-workload bursty -batch 5 -clients 40 -session-cap 4 -items-per-client 2 -faults churn:2", want: func() core.Scale {
			s := small()
			s.Base.Workload, s.Base.BatchTicks, s.Base.Faults = "bursty", 5, "churn:2"
			s.Base.Clients, s.Base.SessionCap, s.Base.ItemsPerClient = 40, 4, 2
			return s
		}},
		{args: "-workers 3 -fig fig3", want: func() core.Scale { s := small(); s.Workers = 3; return s }},
		{args: "-list -query bad(", want: func() core.Scale { // -list validates nothing
			s := small()
			s.Base.Queries = []string{"bad("}
			return s
		}},
		{args: "-query bad(", wantErr: `unknown kind "bad"`},
		{args: "-scale huge", wantErr: `unknown scale "huge"`},
		{args: "-fig nope", wantErr: `unknown figure "nope"`},
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

// TestFlagSet pins d3texp's flags: the shared Config flags plus its own.
func TestFlagSet(t *testing.T) {
	want := []string{"batch", "clients", "csv", "durability-dir", "faults", "fig", "fsync", "items",
		"items-per-client", "list", "obs-interval", "query", "quiet", "repos", "scale", "scenario",
		"seed", "session-cap", "snapshot-every", "ticks", "time", "v", "virtual-sessions", "workers",
		"workload", "workload-path"}
	var got []string
	newFlagSet(new(core.Scale), new(options)).VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if !slices.Equal(got, want) {
		t.Errorf("flags\n  %v\nwant\n  %v", got, want)
	}
}
