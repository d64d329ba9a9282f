package core

import (
	"flag"
	"strings"

	"d3t/internal/trace"
)

// BindFlags binds the command-line flags every command that builds a
// Config shares — sizes, workload, faults, durability, serving,
// batching, queries and the seed — onto fs. Each flag defaults to cfg's
// current value and parsing fs writes straight into cfg; -query may be
// repeated and appends to cfg.Queries.
func BindFlags(fs *flag.FlagSet, cfg *Config) {
	fs.IntVar(&cfg.Repositories, "repos", cfg.Repositories, "number of repositories")
	fs.IntVar(&cfg.Items, "items", cfg.Items, "number of data items")
	fs.IntVar(&cfg.Ticks, "ticks", cfg.Ticks, "trace length (1-second ticks)")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	fs.StringVar(&cfg.Workload, "workload", cfg.Workload,
		"trace workload family: "+strings.Join(trace.WorkloadNames(), ", "))
	fs.StringVar(&cfg.WorkloadPath, "workload-path", cfg.WorkloadPath, "trace CSV file for -workload=csv")
	fs.StringVar(&cfg.Faults, "faults", cfg.Faults,
		"failure injection: crash:<node|max>@<tick>[+<downticks>], kill:... (process death; recovers from -durability-dir) or churn:<rate>[:<meandown>]")
	fs.StringVar(&cfg.Durability.Dir, "durability-dir", cfg.Durability.Dir,
		"write-ahead log directory: every repository logs its state and kill: faults recover from disk (empty = off)")
	fs.IntVar(&cfg.Durability.SnapshotEvery, "snapshot-every", cfg.Durability.SnapshotEvery,
		"commits between WAL snapshot rotations (0 = the wal default of 256)")
	fs.StringVar(&cfg.Durability.Fsync, "fsync", cfg.Durability.Fsync, "WAL fsync policy: batch (default), always, never")
	fs.IntVar(&cfg.Clients, "clients", cfg.Clients, "client sessions served by the repositories (0 = no client layer)")
	fs.IntVar(&cfg.ItemsPerClient, "items-per-client", cfg.ItemsPerClient, "mean watch-list size per client (0 = the default of 3)")
	fs.IntVar(&cfg.SessionCap, "session-cap", cfg.SessionCap, "sessions per repository before overflow redirects (0 = unlimited)")
	fs.IntVar(&cfg.VirtualSessions, "virtual-sessions", cfg.VirtualSessions,
		"synthetic sessions generated straight into the session store (0 = off)")
	fs.StringVar(&cfg.Scenario, "scenario", cfg.Scenario,
		"scenario over the synthetic population: flash:at=0.3,frac=0.5,burst=0.2 | regional:at=0.4,frac=0.25,rejoin=0.7 | diurnal:waves=2,low=0.3")
	fs.IntVar(&cfg.BatchTicks, "batch", cfg.BatchTicks, "coalesce each item's updates over windows of this many ticks (<=1 = off)")
	fs.Var((*querySpecs)(&cfg.Queries), "query",
		"derived-data query spec, repeatable — e.g. 'avg(w=5;ITEM000,ITEM001,ITEM002)@0.05' or 'diff(ITEM000,ITEM001)@0.1!client'")
}

// querySpecs is the repeatable -query flag.
type querySpecs []string

func (q *querySpecs) String() string {
	if q == nil {
		return ""
	}
	return strings.Join(*q, " ")
}

func (q *querySpecs) Set(s string) error { *q = append(*q, s); return nil }
