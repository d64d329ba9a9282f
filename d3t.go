// Package d3t is a reproduction of "Maintaining Coherency of Dynamic Data
// in Cooperating Repositories" (Shah, Ramamritham, Shenoy — VLDB 2002) as
// a reusable Go library.
//
// The paper's system disseminates rapidly changing data items (stock
// prices, sensor readings) from a source through an overlay of cooperating
// repositories — the dynamic data dissemination tree, d3t — such that each
// repository's copy stays within a per-item coherency tolerance c:
//
//	|source(t) - copy(t)| <= c    for all t
//
// The package exposes three layers:
//
//   - Experiments: RunExperiment executes a fully configured simulation
//     (network, overlay, dissemination, fidelity measurement); Figures
//     regenerates every table and figure of the paper's evaluation.
//   - Building blocks: traces (GenerateTraces), physical networks
//     (GenerateNetwork), overlay construction (NewLeLA) and
//     dissemination protocols (NewDistributed, NewCentralized, RunPush,
//     RunPull, RunLease) for custom setups.
//   - Live runtimes: the live subpackage runs the same algorithms on
//     goroutines in real time, and netio serves them over TCP.
//   - Client serving: VirtualFleet (and Config.Clients /
//     Config.VirtualSessions) attaches end-user sessions with their own
//     tolerances to repositories — load-aware placement, per-client
//     filtered fan-out, churn/migration, and client-observed fidelity.
//     It is the one session store: sessions are compact per-shard array
//     state instead of one object each, so named clients, query input
//     sessions and millions of synthetic sessions share one process.
//     Placement goes through a shared nearest-k index with a
//     consistent-hash overflow ring, and Config.Scenario schedules
//     flash crowds, correlated regional failures and diurnal load waves
//     over the synthetic population. live and netio serve sessions over
//     channels and TCP subscriptions.
//   - Sharding and batching: Config.BatchTicks coalesces every run's
//     update bursts into the newest value per window, and Config.Shards
//     runs the simulation once per item shard in parallel (exact,
//     because items are independent; rejected where a layer couples
//     them). The same item partition drives live's per-shard cores, and
//     netio carries batches in multi-update frames.
//   - Durability: Config.Durability (and the WAL building blocks) backs
//     every repository with a per-shard write-ahead log plus periodic
//     snapshots, group-committed on batch boundaries. A killed
//     repository recovers its exact pre-crash values and edge filter
//     state from disk instead of rejoining cold — the first
//     post-recovery push is suppressed or forwarded as if the crash
//     never happened. All three runtimes honor it (kill: fault specs,
//     live NewDurableCluster, netio NodeConfig.Durability).
//   - Derived-data queries: Config.Queries (and the Query building
//     blocks) subscribe clients to *derived* values — windowed
//     aggregates, joins, filters — with a tolerance cQ on the result;
//     tolerance allocation translates cQ into per-input tolerances the
//     Eq. 3+7 machinery enforces, so coherent inputs provably imply a
//     coherent result. All three runtimes serve query sessions
//     (VirtualFleet.AttachQueries, live SubscribeQuery, netio
//     SubscribeQuery).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package d3t

import (
	"d3t/internal/coherency"
	"d3t/internal/core"
	"d3t/internal/dissemination"
	"d3t/internal/netsim"
	"d3t/internal/node"
	"d3t/internal/query"
	"d3t/internal/repository"
	"d3t/internal/resilience"
	"d3t/internal/serve"
	"d3t/internal/sim"
	"d3t/internal/trace"
	"d3t/internal/tree"
	"d3t/internal/wal"
)

// Experiment layer -----------------------------------------------------

type (
	// Config fully describes one simulation run.
	Config = core.Config
	// Outcome is the measured result of a run.
	Outcome = core.Outcome
	// Scale sizes a figure sweep (SmallScale or PaperScale).
	Scale = core.Scale
	// FigureResult is a regenerated table or figure.
	FigureResult = core.FigureResult
	// FigureFunc regenerates one table or figure.
	FigureFunc = core.FigureFunc
)

// DefaultConfig returns the paper's base case at full scale.
func DefaultConfig() Config { return core.Default() }

// RunExperiment executes one end-to-end simulation.
func RunExperiment(cfg Config) (*Outcome, error) { return core.RunExperiment(cfg) }

// SmallScale is the fast sweep preset; PaperScale is the paper's.
func SmallScale() Scale { return core.SmallScale() }

// PaperScale reproduces the paper's evaluation scale (100 repositories,
// 700 network nodes, 100 traces of 10000 ticks).
func PaperScale() Scale { return core.PaperScale() }

// Figures returns the registry of reproducible tables and figures.
func Figures() map[string]FigureFunc { return core.Figures() }

// FigureIDs lists the registry keys in sorted order.
func FigureIDs() []string { return core.FigureIDs() }

// SweepRunner executes batches of configurations on a bounded worker
// pool, sharing cached networks and trace sets across sweep points.
// Results are index-ordered and independent of the worker count.
type SweepRunner = core.Runner

// NewSweepRunner returns a runner bounded to the given worker count
// (<= 0 means GOMAXPROCS). Assign it to Scale.Runner to share caches
// across figures, or call RunAll directly with a batch of Configs.
func NewSweepRunner(workers int) *SweepRunner { return core.NewRunner(workers) }

// Building blocks -------------------------------------------------------

type (
	// Time is simulation time in microseconds.
	Time = sim.Time
	// Trace is one data item's update history.
	Trace = trace.Trace
	// Tick is a single trace observation.
	Tick = trace.Tick
	// TraceConfig parameterizes synthetic trace generation.
	TraceConfig = trace.GenConfig
	// Workload is a pluggable trace-set generator family.
	Workload = trace.Workload
	// WorkloadSpec sizes a workload generation request.
	WorkloadSpec = trace.WorkloadSpec
	// Network is the endpoint delay structure of a physical topology.
	Network = netsim.Network
	// NetworkConfig parameterizes random topology generation.
	NetworkConfig = netsim.Config
	// Repository is one overlay node.
	Repository = repository.Repository
	// RepositoryID identifies an overlay node (0 is the source).
	RepositoryID = repository.ID
	// Requirement is a coherency tolerance in value units.
	Requirement = coherency.Requirement
	// Client is an end user attached to a repository with per-item
	// tolerances (Section 1.2).
	Client = repository.Client
	// ClientWorkload parameterizes random client population generation.
	ClientWorkload = repository.ClientWorkload
	// Overlay is a constructed dissemination graph.
	Overlay = tree.Overlay
	// LeLABuilder is the paper's Level-by-Level Algorithm with its
	// dynamic-membership operations (Insert, UpdateNeeds).
	LeLABuilder = tree.LeLA
	// Protocol is a push dissemination algorithm.
	Protocol = dissemination.Protocol
	// PushConfig is the delay model for push runs.
	PushConfig = dissemination.Config
	// PullConfig parameterizes pull-based runs.
	PullConfig = dissemination.PullConfig
	// LeaseConfig parameterizes lease-augmented push runs.
	LeaseConfig = dissemination.LeaseConfig
	// RunResult is the outcome of a protocol run over an overlay.
	RunResult = dissemination.Result
)

// Time units re-exported for building schedules and delays.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Pull modes.
const (
	StaticTTR   = dissemination.StaticTTR
	AdaptiveTTR = dissemination.AdaptiveTTR
)

// SourceID is the overlay id of the data source.
const SourceID = repository.SourceID

// Milliseconds converts floating-point milliseconds to Time.
func Milliseconds(ms float64) Time { return sim.Milliseconds(ms) }

// GenerateTrace produces one synthetic trace.
func GenerateTrace(cfg TraceConfig) (*Trace, error) { return trace.Generate(cfg) }

// GenerateTraces produces n workload traces at the given tick count and
// interval (the paper's stock-price stand-ins).
func GenerateTraces(n, ticks int, interval Time, seed int64) []*Trace {
	return trace.GenerateSet(n, ticks, interval, seed)
}

// RegisterWorkload adds a custom workload family to the registry, making
// it selectable via Config.Workload and the cmd flags.
func RegisterWorkload(w Workload) { trace.RegisterWorkload(w) }

// WorkloadNames lists the registered workload families in sorted order.
func WorkloadNames() []string { return trace.WorkloadNames() }

// GenerateNetwork builds a random router topology with Pareto link delays.
func GenerateNetwork(cfg NetworkConfig) (*Network, error) { return netsim.Generate(cfg) }

// UniformNetwork builds a network where every endpoint pair is exactly
// delay apart.
func UniformNetwork(repositories int, delay Time) *Network {
	return netsim.Uniform(repositories, delay)
}

// NewRepository creates an overlay node with the given id and cooperation
// limit.
func NewRepository(id RepositoryID, coopLimit int) *Repository {
	return repository.New(id, coopLimit)
}

// NewLeLA returns the paper's Level-by-Level overlay builder. The
// concrete type also supports dynamic membership: Insert joins a new
// repository into a built overlay, UpdateNeeds reapplies the algorithm
// for changed coherency needs, and Overlay.Remove departs a leaf.
func NewLeLA(pPercent float64, seed int64) *LeLABuilder {
	return &tree.LeLA{PPercent: pPercent, Seed: seed}
}

// NewDistributed returns the repository-based dissemination algorithm
// (Eqs. 3 and 7).
func NewDistributed() Protocol { return dissemination.NewDistributed() }

// NewCentralized returns the source-based dissemination algorithm.
func NewCentralized() Protocol { return dissemination.NewCentralized() }

// RunPush pushes the traces through the overlay with the protocol.
func RunPush(o *Overlay, traces []*Trace, p Protocol, cfg PushConfig) (*RunResult, error) {
	return dissemination.Run(o, traces, p, cfg)
}

// RunPull refreshes the overlay by polling (static or adaptive TTR).
func RunPull(o *Overlay, traces []*Trace, cfg PullConfig) (*RunResult, error) {
	return dissemination.RunPull(o, traces, cfg)
}

// RunLease runs lease-augmented push.
func RunLease(o *Overlay, traces []*Trace, cfg LeaseConfig) (*RunResult, error) {
	return dissemination.RunLease(o, traces, cfg)
}

// ControlledCoopDegree computes the Eq. 2 "optimal" degree of cooperation.
func ControlledCoopDegree(avgComm, avgComp Time, resources, k int) int {
	return tree.ControlledCoopDegree(avgComm, avgComp, resources, k)
}

// Node core --------------------------------------------------------------

type (
	// NodeCore is the transport-agnostic repository state machine every
	// runtime shares: per-update receive/filter/forward decisions
	// (Eqs. 3 and 7) over precomputed dependent plans, last-pushed-value
	// tracking, session admission/redirect/resync, and failover resync.
	// The simulator, the goroutine cluster and the TCP cluster are thin
	// transports around it; custom runtimes can be too.
	NodeCore = node.Core
	// NodeTransport is the backend half of a node: the core decides,
	// the transport moves bytes and time.
	NodeTransport = node.Transport
	// NodeOptions configures a NodeCore (source semantics, session cap,
	// naive Eq.3-only ablation, serve-only mode).
	NodeOptions = node.Options
	// NodeSession is one client's subscription state as its serving
	// node core tracks it; it survives migration between cores.
	NodeSession = node.Session
	// NodeDecisions tallies a core's forward/suppress filter decisions
	// (the cross-backend parity instrumentation).
	NodeDecisions = node.Decisions
)

// NewNodeCore builds a repository core around the repository's wiring;
// peers resolves dependent ids to their repositories.
func NewNodeCore(self *Repository, peers func(RepositoryID) *Repository, opts NodeOptions) *NodeCore {
	return node.New(self, peers, opts)
}

// NewNodeSession builds a detached client session for admission into a
// NodeCore.
func NewNodeSession(name string, wants map[string]Requirement) *NodeSession {
	return node.NewSession(name, wants)
}

// Resilience layer ------------------------------------------------------

type (
	// FaultPlan is a deterministic failure schedule (crashes, rejoins,
	// churn) injected into a resilient run.
	FaultPlan = resilience.Plan
	// Fault is one scheduled failure of a FaultPlan.
	Fault = resilience.Fault
	// ResilienceConfig parameterizes heartbeats, detection and repair.
	ResilienceConfig = resilience.Config
	// ResilienceResult extends a push run result with resilience stats.
	ResilienceResult = resilience.Result
)

// ParseFaultPlan builds a failure schedule from a spec string such as
// "crash:max@50", "crash:3@50+100" or "churn:2:30", sized to a run of the
// given repositories/ticks. See resilience.ParsePlan for the grammar; the
// same spec is accepted by Config.Faults and the -faults command flags.
// Sized to a session population instead, it builds a session churn plan
// (VirtualFleetOptions.Plan; Config.SessionChurn accepts the same specs).
func ParseFaultPlan(spec string, repos, ticks int, interval Time, seed int64) (*FaultPlan, error) {
	return resilience.ParsePlan(spec, repos, ticks, interval, seed)
}

// RunResilient pushes the traces through the overlay under a fault plan:
// heartbeats between neighbors, silence-window failure detection, and
// backup-parent repair via the builder's re-homing machinery
// (LeLABuilder.BackupParents, Rehome, RemoveRepair). A nil plan runs
// fault-free.
func RunResilient(o *Overlay, lela *LeLABuilder, traces []*Trace, p Protocol,
	cfg ResilienceConfig, plan *FaultPlan) (*ResilienceResult, error) {
	return resilience.Run(o, lela, traces, p, cfg, plan)
}

// Durability layer -------------------------------------------------------

type (
	// DurabilityConfig selects per-repository durable state for
	// experiments (Config.Durability): each repository's values and edge
	// filter state ride a write-ahead log with periodic snapshots under
	// Dir, so kill: faults recover from disk instead of rejoining cold.
	DurabilityConfig = core.DurabilityConfig
	// WALOptions configures one write-ahead log directory; the live and
	// netio runtimes take one via Options.Durability and
	// NodeConfig.Durability.
	WALOptions = wal.Options
	// WALRecovered is what opening a log directory found on disk:
	// snapshot state, replayable batches, and any truncated torn tail.
	WALRecovered = wal.Recovered
	// WALLog is an open write-ahead log (group commit per batch).
	WALLog = wal.Log
)

// Fsync policies for WALOptions.Fsync.
const (
	WALFsyncBatch  = wal.PolicyBatch
	WALFsyncAlways = wal.PolicyAlways
	WALFsyncNever  = wal.PolicyNever
)

// OpenWAL recovers a log directory's state (truncating any torn tail)
// and opens the log for appending — the building block custom runtimes
// use directly.
func OpenWAL(dir string, opts WALOptions) (*WALLog, *WALRecovered, error) {
	return wal.Open(dir, opts)
}

// DeriveNeeds computes each repository's data and coherency needs from its
// client population: the union of its clients' items, each at the most
// stringent tolerance any client demands (Section 1.2).
func DeriveNeeds(repos []*Repository, clients []*Client) error {
	return repository.DeriveNeeds(repos, clients)
}

// GenerateClients builds a random client population for a workload.
func GenerateClients(w ClientWorkload) ([]*Client, error) {
	return repository.GenerateClients(w)
}

// Serving layer ---------------------------------------------------------

type (
	// VirtualFleet is the session store of one run: load-aware placement
	// under a session cap, per-client coherency-filtered fan-out (Eqs.
	// 3+7 at the leaf), churn and crash-driven migration, and
	// client-observed fidelity, over compact per-shard struct-of-arrays
	// state — no per-session object, no goroutine. It implements the run
	// observers, so assign it to PushConfig.Observer
	// (ResilienceConfig.Push.Observer under RunResilient) to serve a
	// simulation's sessions. AttachAll admits a named Client slice,
	// Populate a synthetic population of millions without materializing
	// clients, AttachQueries the options' query catalogue.
	VirtualFleet = serve.Fleet
	// VirtualFleetOptions parameterizes a fleet (cap, churn plan,
	// scenario, shard count, overflow ring, query catalogue).
	VirtualFleetOptions = serve.Options
	// VirtualSynthetic parameterizes a compact synthetic population —
	// the GenerateClients distribution without per-client objects.
	VirtualSynthetic = serve.Synthetic
	// RunObserver receives a simulation's source ticks and deliveries
	// (PushConfig.Observer).
	RunObserver = dissemination.Observer
	// ResilienceObserver extends RunObserver with fault events: a
	// PushConfig.Observer implementing it also sees the crashes and
	// rejoins of a RunResilient run.
	ResilienceObserver = resilience.Observer
)

// NewVirtualFleet builds an empty fleet over the repository population
// (ids 1..n, matching the network's endpoints). AttachAll, Populate or
// AttachQueries the sessions, DeriveNeeds, build the overlay, Seed, run
// with the fleet as the observer, then Finalize.
func NewVirtualFleet(net *Network, repos []*Repository, opts VirtualFleetOptions) (*VirtualFleet, error) {
	return serve.NewFleet(net, repos, opts)
}

// Query layer -----------------------------------------------------------

type (
	// Query is one continuous derived-data query: an operator (windowed
	// sum/avg/min/max aggregate, diff/ratio join, optional filter
	// predicate) over input items, with a client tolerance cQ on the
	// result. Query.Wants() is the tolerance allocation: the per-input
	// subscription that makes coherent inputs imply a coherent result.
	// live.Cluster.SubscribeQuery takes one.
	Query = query.Query
	// QueryKind is the query's combining operator.
	QueryKind = query.Kind
	// QueryPred is the optional Filter(pred) stage gating publication.
	QueryPred = query.Pred
	// QueryPlacement selects repository-side (default) or client-side
	// evaluation.
	QueryPlacement = query.Placement
)

// Query operators.
const (
	QuerySum   = query.Sum
	QueryAvg   = query.Avg
	QueryMin   = query.Min
	QueryMax   = query.Max
	QueryDiff  = query.Diff
	QueryRatio = query.Ratio
)

// Query placements.
const (
	QueryPlaceRepo   = query.PlaceRepo
	QueryPlaceClient = query.PlaceClient
)

// ParseQuery builds a query from its spec string, e.g.
// "avg(w=5;ITEM000,ITEM001,ITEM002)@0.05" or
// "diff(ITEM000,ITEM001)>0@0.1!client". The returned query has no Name;
// callers assign one. The same grammar feeds Config.Queries and the
// -query command flags.
func ParseQuery(spec string) (Query, error) { return query.Parse(spec) }

// ParseQueryList parses a list of specs and names them q0, q1, ...
func ParseQueryList(specs []string) ([]Query, error) { return query.ParseList(specs) }
