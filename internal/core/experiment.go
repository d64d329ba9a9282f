package core

import (
	"fmt"

	"d3t/internal/dissemination"
	"d3t/internal/netsim"
	"d3t/internal/obs"
	"d3t/internal/repository"
	"d3t/internal/resilience"
	"d3t/internal/serve"
	"d3t/internal/sim"
	"d3t/internal/trace"
	"d3t/internal/tree"
)

// Outcome is the measured result of one simulation run.
type Outcome struct {
	// Config is the configuration that produced the outcome.
	Config Config
	// Fidelity is the system fidelity in [0,1]; LossPercent is
	// 100*(1-Fidelity), the paper's y-axis.
	Fidelity    float64
	LossPercent float64
	// CoopDegreeUsed is the effective per-node dependent cap (after
	// controlled cooperation, if it was selected).
	CoopDegreeUsed int
	// AvgCommDelay is the measured mean endpoint-to-endpoint delay.
	AvgCommDelay sim.Time
	// Tree summarizes the constructed overlay's shape.
	Tree tree.Metrics
	// Stats carries message/check counters from the dissemination run.
	Stats dissemination.Stats
	// SourceUtilization is the busy fraction of the source's processor.
	SourceUtilization float64
	// Resilience carries fault-injection and repair counters; nil when the
	// run had Faults disabled.
	Resilience *resilience.Stats
	// Clients and VServe carry the serving layer's outcome — client-observed
	// fidelity, redirect/migration counters, per-session fan-out work,
	// shard count and the measured resident bytes per session. A run has
	// one session store, so both describe its whole population (named
	// clients plus synthetic sessions); Clients is nil when the run had
	// Clients disabled, VServe when it had VirtualSessions disabled.
	Clients *serve.Stats
	VServe  *serve.Stats
	// Queries carries the derived-data query layer's outcome —
	// result-level fidelity against the allocation's union-bound floor,
	// eval/recompute counters and per-placement message costs; nil when
	// the run had Queries disabled.
	Queries *serve.QueryStats
	// Coalesced counts the value changes Config.BatchTicks folded into a
	// newer value of the same item before the run (0 with batching off).
	Coalesced uint64
	// Obs is the observability tree's snapshot at the run's horizon; nil
	// when the run had Config.Obs unset.
	Obs *obs.TreeSnapshot
}

// String renders the outcome as a one-line summary.
func (o *Outcome) String() string {
	return fmt.Sprintf("loss=%.2f%% coop=%d msgs=%d srcChecks=%d srcUtil=%.2f %v",
		o.LossPercent, o.CoopDegreeUsed, o.Stats.Messages, o.Stats.SourceChecks,
		o.SourceUtilization, o.Tree)
}

// RunExperiment executes one full simulation: generate workload and
// network, derive the cooperation degree, construct the overlay, and push
// the traces through it.
func RunExperiment(cfg Config) (*Outcome, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	net, err := cfg.network()
	if err != nil {
		return nil, err
	}
	traces, err := cfg.traces()
	if err != nil {
		return nil, err
	}
	return runExperimentWith(cfg, net, traces)
}

// runExperimentWith runs the simulation over pre-built substrates. The
// network and traces are only read, so sweep runners pass cached copies
// shared across concurrent calls; everything mutable (repositories, the
// overlay, trackers) is created here, per run.
func runExperimentWith(cfg Config, net *netsim.Network, traces []*trace.Trace) (*Outcome, error) {
	// Batching is preprocessing: from here on every layer — the serving
	// fleet's seed, the fault layer's initial values, the trackers — sees
	// the one coalesced feed.
	traces, coalesced := trace.CoalesceTraces(traces, cfg.BatchTicks)

	// With a serving population configured — named clients, synthetic
	// sessions, derived-data queries, in any combination — repository
	// needs come from the placed sessions (Section 1.2) instead of the
	// subscription workload: each session attaches to the nearest
	// repository under the session cap, and the repository's requirement
	// for an item becomes the most stringent across its sessions.
	var repos []*repository.Repository
	var fleet *serve.Fleet
	var scenFaults *resilience.Plan
	if cfg.ClientsEnabled() || cfg.VirtualEnabled() || cfg.QueriesEnabled() {
		repos = cfg.bareRepositories()
		catalogue := itemCatalogue(traces)
		plan, err := cfg.sessionPlan()
		if err != nil {
			return nil, err
		}
		scen, err := cfg.scenarioPlan()
		if err != nil {
			return nil, err
		}
		queries, err := cfg.queries()
		if err != nil {
			return nil, err
		}
		known := make(map[string]bool, len(catalogue))
		for _, x := range catalogue {
			known[x] = true
		}
		for _, q := range queries {
			for _, x := range q.Items {
				if !known[x] {
					return nil, fmt.Errorf("core: query %q watches unknown item %q", q.Name, x)
				}
			}
		}
		interval := cfg.interval()
		opts := serve.Options{
			Cap: cfg.SessionCap, Plan: plan, Scenario: scen,
			Interval: interval, Obs: cfg.Obs, Queries: queries,
		}
		if cfg.VirtualEnabled() && cfg.SessionCap > 0 {
			// Under a cap, a synthetic population's overflow placement
			// hashes onto the consistent ring instead of walking
			// ever-longer nearest-first prefixes; a run of named clients
			// alone keeps strict nearest-first overflow.
			opts.RingSlots = 16
		}
		fleet, err = serve.NewFleet(net, repos, opts)
		if err != nil {
			return nil, err
		}
		if cfg.ClientsEnabled() {
			clients, err := cfg.clients(catalogue)
			if err != nil {
				return nil, err
			}
			if err := fleet.AttachAll(clients); err != nil {
				return nil, err
			}
		}
		if cfg.VirtualEnabled() {
			if err := fleet.Populate(serve.Synthetic{
				Sessions:       cfg.VirtualSessions,
				Items:          catalogue,
				ItemsPerClient: cfg.ItemsPerClient,
				StringentFrac:  cfg.StringentFrac,
				Seed:           cfg.Seed + 13,
			}); err != nil {
				return nil, err
			}
		}
		if err := fleet.AttachQueries(); err != nil {
			return nil, err
		}
		fleet.DeriveNeeds()
		// Scenario repository faults attach the resilience layer to the
		// run.
		if scen != nil && len(scen.Faults) > 0 {
			scenFaults = &resilience.Plan{Spec: scen.Spec}
			for _, ft := range scen.Faults {
				rf := resilience.Fault{Node: repository.ID(ft.Repo), At: sim.Time(ft.Tick) * interval}
				if ft.RejoinTick >= 0 {
					rf.RejoinAt = sim.Time(ft.RejoinTick) * interval
				}
				scenFaults.Faults = append(scenFaults.Faults, rf)
			}
		}
	} else {
		repos = cfg.repositories(traces)
	}

	avgComm := net.AvgDelay()
	coop := cfg.CoopDegree
	if coop == 0 {
		comp := cfg.compDelay()
		if comp < 0 {
			comp = 0
		}
		coop = tree.ControlledCoopDegree(avgComm, comp, cfg.Repositories, cfg.CoopK)
	}
	for _, r := range repos {
		r.CoopLimit = coop
	}

	builder, err := cfg.builder()
	if err != nil {
		return nil, err
	}
	overlay, err := builder.Build(net, repos, coop)
	if err != nil {
		return nil, err
	}

	if _, err := cfg.protocol(); err != nil {
		return nil, err
	}
	newProtocol := func() dissemination.Protocol {
		p, _ := cfg.protocol() // resolved above
		return p
	}
	pushCfg := dissemination.Config{
		CompDelay: cfg.compDelay(),
		Queueing:  cfg.Queueing,
		Obs:       cfg.Obs,
	}
	if fleet != nil {
		// The serving layer is fed by the initial values and the run's
		// observable events — crashes and rejoins included, when the
		// resilience layer is attached. It registers once, here: the
		// overlay is built, so serving sets are final and admission checks
		// see them.
		initial := make(map[string]float64, len(traces))
		for _, tr := range traces {
			if tr.Len() > 0 {
				initial[tr.Item] = tr.Ticks[0].Value
			}
		}
		fleet.Seed(initial)
		pushCfg.Observer = fleet
	}
	var res *dissemination.Result
	var resStats *resilience.Stats
	if cfg.FaultsEnabled() || !scenFaults.Empty() || cfg.Durability.Enabled() {
		// The loop with the resilience layer attached: fault injection,
		// heartbeats, detection, backup-parent repair and write-ahead
		// logs. The serving fleet registered on pushCfg sees the crashes
		// and rejoins too.
		plan, err := cfg.faultPlan()
		if err != nil {
			return nil, err
		}
		lela, _ := builder.(*tree.LeLA) // non-LeLA builders repair with defaults
		rr, err := resilience.Run(overlay, lela, traces, newProtocol(), resilience.Config{
			Push:       pushCfg,
			DetectK:    cfg.DetectTicks,
			Durability: cfg.Durability.walOptions(),
		}, plan.Merge(scenFaults))
		if err != nil {
			return nil, err
		}
		res, resStats = rr.Result, &rr.Resilience
	} else {
		// The loop alone, once per item shard (Validate kept every layer
		// that couples items out of a sharded run).
		res, _, err = dissemination.RunShards(overlay, traces, newProtocol, pushCfg, cfg.Shards)
		if err != nil {
			return nil, err
		}
	}

	out := &Outcome{
		Config:            cfg,
		Fidelity:          res.Report.SystemFidelity(),
		LossPercent:       res.Report.LossPercent(),
		CoopDegreeUsed:    coop,
		AvgCommDelay:      avgComm,
		Tree:              overlay.ComputeMetrics(),
		Stats:             res.Stats,
		SourceUtilization: res.SourceUtilization,
		Resilience:        resStats,
		Coalesced:         coalesced,
	}
	if fleet != nil {
		st := fleet.Finalize(res.Horizon)
		if cfg.ClientsEnabled() {
			out.Clients = &st
		}
		if cfg.VirtualEnabled() {
			out.VServe = &st
		}
		if cfg.QueriesEnabled() {
			qst := fleet.FinalizeQueries(res.Horizon)
			out.Queries = &qst
		}
	}
	if cfg.Obs != nil {
		s := cfg.Obs.Snapshot(int64(res.Horizon))
		out.Obs = &s
	}
	return out, nil
}
