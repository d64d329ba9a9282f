// Package core assembles the substrates — traces, network, overlay
// construction and dissemination — into end-to-end experiments, and
// provides one preset per table and figure of the paper's evaluation
// (Section 6) so each can be regenerated with a single call.
package core

import (
	"fmt"

	"d3t/internal/dissemination"
	"d3t/internal/netsim"
	"d3t/internal/obs"
	"d3t/internal/query"
	"d3t/internal/repository"
	"d3t/internal/resilience"
	"d3t/internal/sim"
	"d3t/internal/trace"
	"d3t/internal/tree"
	"d3t/internal/wal"
)

// Config fully describes one simulation run. The zero value is not valid;
// start from Default() and override.
type Config struct {
	// Repositories and Routers size the physical network (paper base
	// case: 100 and 600).
	Repositories int
	Routers      int

	// Items, Ticks and TickInterval size the workload (paper: 100 traces
	// of 10000 one-second polls).
	Items        int
	Ticks        int
	TickInterval sim.Time

	// Workload names the trace family: "stocks" (default, the paper's
	// bounded random walks), "bursty", "sensor", "pareto" or "csv". See
	// trace.WorkloadNames for the full registry.
	Workload string
	// WorkloadPath is the recorded trace file replayed when Workload is
	// "csv"; synthetic families ignore it.
	WorkloadPath string

	// SubscribeProb is each repository's per-item interest probability
	// (paper: 0.5). StringentFrac is T: the fraction of subscribed items
	// with stringent tolerances.
	SubscribeProb float64
	StringentFrac float64

	// CoopDegree caps each node's dependents. Zero selects controlled
	// cooperation (Eq. 2) with constant CoopK.
	CoopDegree int
	CoopK      int

	// Builder names the overlay construction algorithm: "lela" (default),
	// "random", "greedy-closest" or "direct".
	Builder string
	// PPercent is LeLA's load-controller admission band (default 5).
	PPercent float64
	// Preference is LeLA's preference factor, "P1" (default) or "P2".
	Preference string

	// Protocol names the dissemination algorithm: "distributed"
	// (default), "centralized", "naive-eq3" or "all-push".
	Protocol string

	// CompDelayMs is the per-dissemination computational delay (default
	// 12.5; negative means exactly zero).
	CompDelayMs float64
	// CommDelayMs, when positive, replaces the generated topology with a
	// uniform all-pairs delay — the delay-sweep figures use it. Zero
	// keeps the Pareto-delay random topology.
	CommDelayMs float64
	// LinkDelayMinMs/LinkDelayMeanMs parameterize the generated topology
	// (defaults 2 and 15, per the paper).
	LinkDelayMinMs  float64
	LinkDelayMeanMs float64
	// Queueing selects the strict serial-server node model instead of the
	// paper's per-update latency model (see dissemination.Config).
	Queueing bool

	// Clients enables the client-serving layer: the number of end-user
	// sessions attached to the repositories (0 disables it). With clients
	// set, repository needs are derived from the placed client population
	// (Section 1.2) instead of the per-repository subscription workload,
	// updates fan out from repositories to sessions through per-client
	// coherency filters, and the outcome carries client-observed fidelity
	// plus redirect/migration counters.
	Clients int
	// ItemsPerClient is the mean watch-list size per client (default 3).
	ItemsPerClient int
	// SessionCap caps the sessions one repository serves (0 = unlimited);
	// a client whose nearest repository is full redirects to the next
	// candidate.
	SessionCap int
	// SessionChurn schedules session arrivals/departures with the Faults
	// grammar (resilience.ParsePlan) applied to the session population —
	// named clients, then synthetic sessions, indexed from 1 in admission
	// order:
	//
	//	"" | "none"                no churn
	//	crash:<i>@<tick>[+<down>]  session i departs at the tick (and
	//	                           re-arrives <down> ticks later)
	//	churn:<rate>[:<meandown>]  seeded Poisson churn: <rate> expected
	//	                           departures per 100 ticks across the
	//	                           population, each away for an exponential
	//	                           time with mean <meandown> ticks
	SessionChurn string

	// VirtualSessions is the number of synthetic end-user sessions the
	// serving layer generates straight into its session store
	// (internal/serve) without materializing a Client per session — the
	// way to push the layer to millions of sessions in one process. It
	// composes with Clients (admitted first) and Queries; reuses
	// ItemsPerClient, StringentFrac, SessionCap and SessionChurn. With a
	// SessionCap set, overflow placement goes through the index's
	// consistent-hash ring instead of long nearest-first walks.
	VirtualSessions int
	// Scenario schedules scenario-driven churn over the virtual
	// population (see trace.ParseScenario): "flash:at=0.3,frac=0.5,..."
	// creates a crowd detached and bursts it onto the hottest item,
	// "regional:..." fails a contiguous repository region (routing the
	// run through the resilient runner), "diurnal:..." runs load waves.
	// Empty or "none" disables it. Requires VirtualSessions > 0.
	Scenario string

	// Queries is the continuous derived-data query catalogue: each spec
	// (see query.Parse; e.g. "avg(w=5;ITEM000,ITEM001)@0.05") becomes a
	// query session evaluated at its serving repository, its per-input
	// tolerances derived from the result tolerance by the allocation
	// rules and folded into DeriveNeeds alongside any client population.
	// The outcome then carries Outcome.Queries. Empty disables the layer
	// (and leaves every figure byte-identical to a build without it).
	Queries []string

	// Shards hash-partitions the data items (node.ShardOf) across parallel
	// runs of the one loop (dissemination.RunShards), which the paper's
	// per-item trees make exact: the outcome equals the unsharded run's.
	// Values <= 1 run unsharded. Queueing, Faults, Durability, Clients,
	// VirtualSessions and Queries couple items through shared state, so
	// Validate rejects each of them together with Shards > 1.
	Shards int
	// BatchTicks coalesces each item's updates over windows of this many
	// source ticks before the run (trace.CoalesceTraces): within a window
	// only the newest value moves. It applies to every run — trackers,
	// serving layer and fault layer all see the coalesced feed — and
	// Outcome.Coalesced counts the folded updates. Values <= 1 disable it.
	BatchTicks int

	// Faults selects a failure-injection plan (see resilience.ParsePlan):
	// "" or "none" runs fault-free through the plain dissemination runner,
	// "crash:<node|max>@<tick>[+<downticks>]" injects one crash (with
	// optional rejoin), "kill:<node|max>@<tick>[+<downticks>]" injects a
	// process death whose rejoin recovers from disk when Durability is
	// set (cold when it is not), "churn:<rate>[:<meandown>]" injects
	// seeded Poisson churn. Any other value routes the run through the
	// resilient runner, which adds heartbeats, failure detection and
	// backup-parent repair.
	Faults string
	// DetectTicks overrides the failure-detection silence window, in
	// heartbeat intervals (0 keeps the resilience default of 3). Only
	// meaningful with Faults set.
	DetectTicks int

	// Durability gives every repository a write-ahead log with periodic
	// snapshots (internal/wal), so kill: faults recover from disk and a
	// rerun over the same directory is a full-cluster restart. Setting it
	// routes the run through the resilient runner (which owns the
	// crash/recovery machinery) even when Faults is empty. The zero value
	// disables it and leaves every figure byte-identical.
	Durability DurabilityConfig

	// Obs, when set, collects per-node observability — decision counters,
	// latency histograms, load/edge-delay EWMAs and sampled update traces
	// — across every layer the run touches (dissemination, faults,
	// serving), every shard recording into the one tree. Observation is
	// passive: a run produces byte-identical results with or without it
	// (TestObsDisabledByteIdentical). The tree's snapshot at the run's
	// horizon lands in Outcome.Obs.
	Obs *obs.Tree `json:"-"`

	// Seed makes the whole run deterministic.
	Seed int64
}

// Default returns the paper's base-case configuration at full scale.
func Default() Config {
	return Config{
		Repositories:  100,
		Routers:       600,
		Items:         100,
		Ticks:         10000,
		TickInterval:  sim.Second,
		SubscribeProb: 0.5,
		StringentFrac: 0.5,
		CoopDegree:    0, // controlled cooperation
		CoopK:         tree.DefaultCoopK,
		Builder:       "lela",
		PPercent:      5,
		Preference:    "P1",
		Protocol:      "distributed",
		CompDelayMs:   12.5,
		Seed:          1,
	}
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.Repositories < 1:
		return fmt.Errorf("core: need at least one repository, got %d", c.Repositories)
	case c.Items < 1:
		return fmt.Errorf("core: need at least one item, got %d", c.Items)
	case c.Ticks < 2:
		return fmt.Errorf("core: need at least two ticks, got %d", c.Ticks)
	case c.SubscribeProb <= 0 || c.SubscribeProb > 1:
		return fmt.Errorf("core: subscribe probability %v outside (0,1]", c.SubscribeProb)
	case c.StringentFrac < 0 || c.StringentFrac > 1:
		return fmt.Errorf("core: stringent fraction %v outside [0,1]", c.StringentFrac)
	case c.CoopDegree < 0:
		return fmt.Errorf("core: negative cooperation degree %d", c.CoopDegree)
	case c.Shards < 0:
		return fmt.Errorf("core: negative shard count %d", c.Shards)
	case c.BatchTicks < 0:
		return fmt.Errorf("core: negative batch window %d", c.BatchTicks)
	}
	if _, err := c.builder(); err != nil {
		return err
	}
	if _, err := c.protocol(); err != nil {
		return err
	}
	if _, err := trace.LookupWorkload(c.Workload); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.Workload == "csv" && c.WorkloadPath == "" {
		return fmt.Errorf("core: csv workload needs WorkloadPath")
	}
	if _, err := c.faultPlan(); err != nil {
		return err
	}
	if c.Clients < 0 {
		return fmt.Errorf("core: negative client count %d", c.Clients)
	}
	if c.SessionCap < 0 {
		return fmt.Errorf("core: negative session cap %d", c.SessionCap)
	}
	if c.Clients == 0 && c.VirtualSessions == 0 && c.SessionChurn != "" && c.SessionChurn != "none" {
		return fmt.Errorf("core: session churn %q needs Clients or VirtualSessions > 0", c.SessionChurn)
	}
	if c.VirtualSessions < 0 {
		return fmt.Errorf("core: negative virtual session count %d", c.VirtualSessions)
	}
	if c.Scenario != "" && c.Scenario != "none" && c.VirtualSessions == 0 {
		return fmt.Errorf("core: scenario %q needs VirtualSessions > 0", c.Scenario)
	}
	if _, err := c.scenarioPlan(); err != nil {
		return err
	}
	if _, err := c.sessionPlan(); err != nil {
		return err
	}
	if _, err := c.queries(); err != nil {
		return err
	}
	if c.Durability.SnapshotEvery < 0 {
		return fmt.Errorf("core: negative snapshot interval %d", c.Durability.SnapshotEvery)
	}
	if _, err := wal.ParsePolicy(c.Durability.Fsync); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.Shards > 1 {
		for _, layer := range []struct {
			field string
			on    bool
		}{
			{"Queueing", c.Queueing},
			{"Faults", c.FaultsEnabled()},
			{"Durability", c.Durability.Enabled()},
			{"Clients", c.ClientsEnabled()},
			{"VirtualSessions", c.VirtualEnabled()},
			{"Queries", c.QueriesEnabled()},
		} {
			if layer.on {
				return fmt.Errorf("core: Shards %d with %s: that layer couples items, so the run cannot be sharded", c.Shards, layer.field)
			}
		}
	}
	return nil
}

// DurabilityConfig selects per-repository durable state for a run (see
// internal/wal for the machinery and on-disk layout).
type DurabilityConfig struct {
	// Dir is the log root; each repository logs under its own
	// subdirectory. Empty disables durability.
	Dir string
	// SnapshotEvery is the commit count between snapshot rotations
	// (0 = the wal default of 256). Smaller means faster recovery and
	// more snapshot writes.
	SnapshotEvery int
	// Fsync is the fsync policy: "batch" (default), "always" or "never".
	Fsync string
}

// Enabled reports whether the run keeps durable state.
func (d DurabilityConfig) Enabled() bool { return d.Dir != "" }

// walOptions converts to the wal package's options.
func (d DurabilityConfig) walOptions() *wal.Options {
	if !d.Enabled() {
		return nil
	}
	return &wal.Options{Dir: d.Dir, SnapshotEvery: d.SnapshotEvery, Fsync: d.Fsync}
}

// ClientsEnabled reports whether the run serves a client population.
func (c Config) ClientsEnabled() bool { return c.Clients > 0 }

// VirtualEnabled reports whether the run serves a synthetic session
// population.
func (c Config) VirtualEnabled() bool { return c.VirtualSessions > 0 }

// scenarioPlan parses and schedules the configured scenario over the
// synthetic population (nil when no scenario is configured).
func (c Config) scenarioPlan() (*trace.ScenarioPlan, error) {
	spec, err := trace.ParseScenario(c.Scenario)
	if err != nil || spec == nil {
		return nil, err
	}
	return trace.BuildScenario(spec, c.VirtualSessions, c.Repositories, c.Ticks, c.Seed+16)
}

// QueriesEnabled reports whether the run serves derived-data queries.
func (c Config) QueriesEnabled() bool { return len(c.Queries) > 0 }

// queries parses the configured query catalogue (named q0, q1, ...).
func (c Config) queries() ([]query.Query, error) {
	return query.ParseList(c.Queries)
}

// sessionPlan parses the configured session-churn plan over the session
// population the run serves — named clients, then synthetic sessions
// (nil when neither is enabled or no churn is configured).
func (c Config) sessionPlan() (*resilience.Plan, error) {
	n := c.Clients + c.VirtualSessions
	if n == 0 {
		return nil, nil
	}
	return resilience.ParsePlan(c.SessionChurn, n, c.Ticks, c.interval(), c.Seed+15)
}

// clients generates the run's client population over the trace
// catalogue. Each client's generated Repo is its *home* endpoint; the
// serving fleet's placement decides which repository actually serves it.
func (c Config) clients(catalogue []string) ([]*repository.Client, error) {
	repos := make([]repository.ID, c.Repositories)
	for i := range repos {
		repos[i] = repository.ID(i + 1)
	}
	return repository.GenerateClients(repository.ClientWorkload{
		Clients:        c.Clients,
		Repos:          repos,
		Items:          catalogue,
		ItemsPerClient: c.ItemsPerClient,
		StringentFrac:  c.StringentFrac,
		Seed:           c.Seed + 13,
	})
}

// faultPlan parses the configured failure-injection plan (nil when faults
// are disabled).
func (c Config) faultPlan() (*resilience.Plan, error) {
	return resilience.ParsePlan(c.Faults, c.Repositories, c.Ticks, c.interval(), c.Seed+12)
}

// interval is the trace tick interval every plan and fleet is scheduled
// on: TickInterval, or the workload generators' default of one second.
func (c Config) interval() sim.Time {
	if c.TickInterval <= 0 {
		return sim.Second
	}
	return c.TickInterval
}

// FaultsEnabled reports whether the run attaches the resilience layer
// for a configured fault plan.
func (c Config) FaultsEnabled() bool {
	return c.Faults != "" && c.Faults != "none"
}

// builder resolves the overlay construction algorithm.
func (c Config) builder() (tree.Builder, error) {
	var pref tree.PreferenceFunc
	switch c.Preference {
	case "", "P1":
		pref = tree.P1
	case "P2":
		pref = tree.P2
	default:
		return nil, fmt.Errorf("core: unknown preference function %q", c.Preference)
	}
	switch c.Builder {
	case "", "lela":
		return &tree.LeLA{PPercent: c.PPercent, Preference: pref, Seed: c.Seed + 2}, nil
	case "random":
		return &tree.RandomBuilder{Seed: c.Seed + 2}, nil
	case "greedy-closest":
		return &tree.GreedyBuilder{Seed: c.Seed + 2}, nil
	case "direct":
		return &tree.DirectBuilder{}, nil
	default:
		return nil, fmt.Errorf("core: unknown builder %q", c.Builder)
	}
}

// protocol resolves the dissemination algorithm.
func (c Config) protocol() (dissemination.Protocol, error) {
	switch c.Protocol {
	case "", "distributed":
		return dissemination.NewDistributed(), nil
	case "centralized":
		return dissemination.NewCentralized(), nil
	case "naive-eq3":
		return dissemination.NewNaive(), nil
	case "all-push":
		return dissemination.NewAllPush(), nil
	default:
		return nil, fmt.Errorf("core: unknown protocol %q", c.Protocol)
	}
}

// network builds or synthesizes the physical network.
func (c Config) network() (*netsim.Network, error) {
	if c.CommDelayMs > 0 {
		return netsim.Uniform(c.Repositories, sim.Milliseconds(c.CommDelayMs)), nil
	}
	if c.CommDelayMs < 0 {
		return netsim.Uniform(c.Repositories, 0), nil
	}
	return netsim.Generate(netsim.Config{
		Repositories:    c.Repositories,
		Routers:         c.Routers,
		LinkDelayMinMs:  c.LinkDelayMinMs,
		LinkDelayMeanMs: c.LinkDelayMeanMs,
		Seed:            c.Seed,
	})
}

// compDelay converts the configured computational delay.
func (c Config) compDelay() sim.Time {
	switch {
	case c.CompDelayMs > 0:
		return sim.Milliseconds(c.CompDelayMs)
	case c.CompDelayMs < 0:
		return -1 // dissemination.Config convention for "exactly zero"
	default:
		return 0 // dissemination default (12.5 ms)
	}
}

// traces generates (or replays) the configuration's trace set through the
// selected workload family. The result is deterministic in the
// workload-relevant fields and read-only thereafter, so sweep runners may
// share one trace set across concurrent runs.
func (c Config) traces() ([]*trace.Trace, error) {
	w, err := trace.LookupWorkload(c.Workload)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return w.Generate(trace.WorkloadSpec{
		Items:    c.Items,
		Ticks:    c.Ticks,
		Interval: c.TickInterval,
		Seed:     c.Seed + 10,
		Path:     c.WorkloadPath,
	})
}

// bareRepositories builds the repository population with empty needs.
// Repositories are mutated during overlay construction and dissemination,
// so unlike traces and networks they are built fresh for every run.
func (c Config) bareRepositories() []*repository.Repository {
	repos := make([]*repository.Repository, c.Repositories)
	for i := range repos {
		repos[i] = repository.New(repository.ID(i+1), 1) // limit set later
	}
	return repos
}

// repositories builds the repository population and assigns each node's
// data and coherency needs over the trace catalogue — the paper's
// per-repository subscription workload, used when no client population is
// configured.
func (c Config) repositories(traces []*trace.Trace) []*repository.Repository {
	repos := c.bareRepositories()
	repository.AssignNeeds(repos, repository.Workload{
		Items:         itemCatalogue(traces),
		SubscribeProb: c.SubscribeProb,
		StringentFrac: c.StringentFrac,
		Seed:          c.Seed + 11,
	})
	return repos
}

// itemCatalogue lists the trace set's item names in trace order.
func itemCatalogue(traces []*trace.Trace) []string {
	catalogue := make([]string, len(traces))
	for i, tr := range traces {
		catalogue[i] = tr.Item
	}
	return catalogue
}
