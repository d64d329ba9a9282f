// Package serve closes the loop from dissemination tree to end users: it
// makes every client of Section 1.2 a first-class *session* that
// subscribes to items with its own coherency tolerance, and fans updates
// out from repositories to sessions through per-client coherency filters
// — the same Eqs. 3 and 7 test the tree applies between repositories,
// applied once more at the leaves, where fan-out cost concentrates.
// (Eq. 3 alone would reintroduce the Section 5 missed-update problem at
// the client: its copy could silently drift by its own tolerance plus
// the repository's.)
//
// The package supplies four pieces, wired through every layer:
//
//   - Load-aware placement: each session attaches to the nearest
//     repository (by physical-network delay from its home point) that is
//     under the configurable session cap; overflow redirects to the next
//     candidate (or, with Options.RingSlots, hashes onto a consistent
//     ring), and redirects are counted as a first-class outcome.
//   - Churn and migration: sessions arrive and depart under a seeded
//     plan or a scenario (flash crowds, diurnal waves), and migrate —
//     with a resync to the new repository's current copy — when their
//     repository crashes.
//   - Client-observed fidelity: the paper's metric, measured at the true
//     consumer rather than the repository, integrated over each
//     session's attached lifetime.
//   - Derived-data queries (queries.go): a query is an input session
//     plus two incremental evaluators and a result meter.
//
// There is one session store, Fleet, and it materializes no object per
// session: a session is a handle — an index into per-shard
// struct-of-arrays state — whether it entered as a named client
// (AttachAll), as one of a million synthetic sessions (Populate) or as a
// query's input session (AttachQueries):
//
//	shard s (FNV-1a(name) % Options.Shards; queries in one extra shard)
//	├── home[i], repo[i], seq[i], orphan flags    per-session scalars
//	├── wOff[i], wLen[i]                          watch-list extent
//	└── watch entries (flat, item-sorted per session)
//	    ├── wItem, wTol                           subscription
//	    ├── wHave, wSeeded                        session-edge filter state
//	    ├── wInViol, wAttached, wLast, wSpan, wViol   fidelity meter
//	    └── wOwner (query shard only)             the query fed by the watch
//
// The meter is a piecewise-constant integrator; the source value of an
// item is global, so it lives once in src[item] instead of once per
// (session, item).
//
// Fan-out is driven by postings lists: byItem[item] lists every watch
// entry (source metering), and post[shard][repo][item] lists the watch
// entries of sessions currently attached to the repository (delivery).
// Attach/detach maintain the postings with swap-deletes through a
// per-watch position; the delivery hot path walks a slice, touches flat
// arrays, and allocates nothing (TestVirtualDeliverAllocFree).
//
// Placement rides the shared internal/place index: per-home candidate
// orders are computed once per home endpoint, not per session.
// Correlated regional failures arrive through the resilience layer's
// crash/rejoin observers exactly as single faults do. The live and netio
// runtimes serve sessions over channels and TCP with the same
// admission/filter/migration policy through node.Core.
package serve

import (
	"fmt"

	"d3t/internal/obs"
	"d3t/internal/query"
	"d3t/internal/resilience"
	"d3t/internal/sim"
	"d3t/internal/trace"
)

// Options parameterizes a fleet.
type Options struct {
	// Cap is the per-repository session cap (0 = unlimited). A session
	// whose nearest repository is full redirects to the next candidate.
	Cap int
	// Plan schedules session churn: a fault plan over the *session*
	// population (Fault.Node is a 1-based index into the clients and
	// synthetic sessions, in admission order) where At is the session's
	// departure and RejoinAt its re-arrival. Nil means every session
	// stays for the whole run. resilience.ParsePlan builds one; see
	// core.Config.SessionChurn for the grammar over sessions.
	Plan *resilience.Plan
	// Scenario schedules scenario-driven churn over the synthetic
	// population (tick-indexed; converted through Interval). Flash-crowd
	// members are created detached and watch the hot item; see Synthetic.
	Scenario *trace.ScenarioPlan
	// Interval is the tick length in sim time: it converts scenario
	// ticks (At = tick * interval, resilience.ParsePlan's convention) and
	// places windowed query aggregates into their window slots. Defaults
	// to 1.
	Interval sim.Time
	// Obs, when set, collects the serving layer's per-repository
	// counters (admits, redirects, migrations, resyncs, per-session
	// deliver/filter decisions, query passes) and the redirect-latency
	// histogram. Observation is passive.
	Obs *obs.Tree
	// Shards is the session-state shard count (default 8). Sessions are
	// sharded by FNV-1a of their name.
	Shards int
	// RingSlots/RingAfter enable the placement index's consistent-hash
	// overflow ring (see place.Options). Zero keeps strict nearest-first
	// overflow.
	RingSlots int
	RingAfter int
	// Queries is the continuous derived-data query catalogue; each entry
	// becomes a query session attached by AttachQueries (see queries.go).
	Queries []query.Query
}

// Stats counts the serving layer's work and outcomes during one run.
// Query sessions are accounted in QueryStats, not here, except that
// their crash migrations and orphanings count like any session's.
type Stats struct {
	// Sessions is the session population size.
	Sessions int
	// Redirects counts admissions that landed on other than the nearest
	// repository because of the session cap.
	Redirects int
	// Migrations counts sessions moved to another repository after their
	// repository crashed; Resyncs counts the catch-up values pushed to
	// migrated or re-arriving sessions.
	Migrations int
	Resyncs    int
	// Orphaned counts sessions that found no live repository with
	// capacity at migration time (they retry when a repository rejoins).
	Orphaned int
	// Departures and Arrivals count executed session-churn events.
	Departures, Arrivals int
	// Delivered and Filtered count per-session update decisions: an
	// update a session's repository received is delivered when it exceeds
	// the client's own tolerance and filtered otherwise.
	Delivered, Filtered uint64
	// MeanFidelity is the mean client-observed fidelity over sessions;
	// LossPercent is 100*(1-MeanFidelity), matching the paper's y-axis.
	// WorstFidelity is the worst single session's fidelity.
	MeanFidelity  float64
	LossPercent   float64
	WorstFidelity float64
	// Shards is the shard count; BytesPerSession the measured resident
	// session-state footprint divided by the population.
	Shards          int
	BytesPerSession float64
}

// String renders the stats as a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("sessions=%d clientLoss=%.2f%% redirects=%d migrations=%d delivered=%d filtered=%d shards=%d bytes/session=%.0f",
		s.Sessions, s.LossPercent, s.Redirects, s.Migrations, s.Delivered, s.Filtered, s.Shards, s.BytesPerSession)
}
