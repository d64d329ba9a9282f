// Package node is the transport-agnostic repository core: one state
// machine owning the full per-update decision pipeline every runtime of
// the system shares — receive an update, record it, track the last value
// pushed over every outgoing edge, filter dependents and client sessions
// through Eqs. 3 and 7 of the paper, resync dependents and sessions after
// failover or migration, and admit or redirect client sessions under the
// session cap.
//
// The three runtimes are thin transports around a Core:
//
//   - the discrete-event simulator (internal/dissemination) drives cores
//     from sim.Engine events and turns decisions into scheduled sends;
//   - the goroutine runtime (internal/live) drives them from channel
//     receives and turns decisions into channel sends;
//   - the TCP runtime (internal/netio) drives them from decoded frames
//     and turns decisions into wire-encoded binary frames.
//
// A Core is deliberately single-goroutine-safe and nothing more: the
// simulator is single-threaded, and the concurrent runtimes already
// serialize per-node work (one goroutine per node, one mutex per server),
// so pushing locking into the core would duplicate their synchronization.
//
// # The first-push rule
//
// The runtimes historically grew two spellings of the same seeding guard
// (live forwarded on `!seeded || ShouldForward`, netio suppressed on
// `seeded && !ShouldForward`). The core states the rule once:
//
//	An edge that has never carried a value — a dependent or session wired
//	mid-run whose resync has not yet landed — always forwards the first
//	update. After any push (live update or resync alike), Eqs. 3 and 7
//	decide.
//
// The "always forward" half is what makes failover safe: a freshly
// re-homed dependent whose resync raced the next update still converges,
// because the unseeded edge cannot suppress. The "after any push" half is
// what makes resync cheap: the resynced value becomes the edge's filter
// state, so the first post-resync update is suppressed exactly when the
// tolerance says it may be (see TestFirstPushAfterResync).
//
// # The fan-out hot path
//
// Filtering an update against a dependent needs the dependent's serving
// tolerance — state owned by the dependent, historically re-read from
// shared maps on every update. The core instead precomputes a per-item
// plan: a flat slice of dependent edges with tolerances resolved at
// wiring time, revalidated against the repositories' wiring generation
// counters (repository.Gen) and re-resolved only when a repair or
// augmentation actually moves them. The steady-state fan-out loop is a
// slice walk with zero allocations (see BenchmarkFanout).
package node

import (
	"sort"

	"d3t/internal/coherency"
	"d3t/internal/obs"
	"d3t/internal/repository"
	"d3t/internal/sim"
)

// Transport is the backend half of a node: the Core decides, the
// Transport moves bytes and time. Implementations translate decisions
// into scheduled simulator events, channel sends, or wire frames.
type Transport interface {
	// Now returns the transport's current time (virtual for the
	// simulator, wall-clock-derived for the concurrent runtimes). The
	// core stamps session activity with it.
	Now() sim.Time
	// SendToDependent ships one update copy to a dependent repository.
	// resync marks a catch-up push (failover convergence), as opposed to
	// a filtered live update. It reports whether the copy was accepted;
	// a transport with no path to the dependent yet (a TCP child that
	// has not dialed in) returns false and the core leaves the edge's
	// filter state untouched, so the dependent catches up on the next
	// qualifying update once reachable.
	SendToDependent(dep repository.ID, item string, value float64, resync bool) bool
	// SendToClient ships one update copy to a client session admitted on
	// this node. resync marks a catch-up push (admission, migration).
	// The session is passed by reference so a transport can dispatch on
	// its Tag (set at admission) without a name lookup on the hot path.
	SendToClient(s *Session, item string, value float64, resync bool)
}

// Options configures a Core.
type Options struct {
	// Source gives the node data-source semantics: its own tolerance in
	// Eq. 7 is zero (it holds exact values), it forwards every item, and
	// it can serve a client session at any tolerance. Repository-bound
	// cores usually derive this from the repository id; the TCP runtime,
	// where a node knows only its own config, sets it explicitly.
	Source bool
	// Eq3Only drops the Eq. 7 missed-update guard — the naive ablation
	// of Figure 4. The real algorithm keeps it off.
	Eq3Only bool
	// SessionCap caps the client sessions the node serves (0 =
	// unlimited); Admit answers an over-cap subscribe with a rejection.
	SessionCap int
	// ServeOnly disables the dependent pipeline: Apply records the value
	// and fans out to sessions only. A sharded live node uses it for the
	// one session core beside its per-shard dissemination cores.
	ServeOnly bool
}

// Core is the repository state machine. It is not safe for concurrent
// use; each transport serializes access (the simulator is
// single-threaded, live holds its per-node mutex, netio its server
// mutex).
type Core struct {
	self  *repository.Repository
	peers func(repository.ID) *repository.Repository
	opts  Options

	values map[string]float64
	plans  map[string]*plan
	// retired accumulates the decision counters of edges dropped by
	// rewires, so EdgeDecisions never under-reports after churn.
	retired map[string]Decisions

	sessions map[string]*Session
	// watchers holds, per item, the admitted sessions watching it with
	// tolerances resolved at admission — the client half of the
	// precomputed fan-out. Sorted by session name for a deterministic
	// delivery order; rebuilt only on session churn.
	watchers   map[string][]watcher
	redirected int

	// obs is the node's observer, nil when observability is disabled.
	// Every hook below is nil-safe, so the disabled path costs one
	// predictable branch per Apply stage and never allocates.
	obs *obs.Node
}

// plan is the precomputed dependent fan-out for one item.
type plan struct {
	// gen is self's wiring generation when the dependent list was built;
	// hold is whether self served the item then. When self's generation
	// moves the whole plan rebuilds (dependents or own tolerance may
	// have changed).
	gen  uint64
	hold bool
	// cSelf is the node's own serving tolerance for the item (zero for
	// the source) — the cSelf of Eq. 7.
	cSelf coherency.Requirement
	deps  []depEdge
}

// depEdge is one outgoing push edge for one item: the resolved tolerance
// and the edge's filter state.
type depEdge struct {
	to   *repository.Repository
	id   repository.ID
	gen  uint64 // to's wiring generation when cDep was resolved
	cDep coherency.Requirement
	// hasTol records whether the dependent declared a serving tolerance
	// for the item; without one the edge never forwards (a validated
	// overlay never produces this).
	hasTol bool
	// last is the last value pushed over the edge; seeded is the
	// first-push rule's flag (see the package comment).
	last   float64
	seeded bool
	// forwarded/suppressed count the edge's filter decisions — the
	// cross-backend parity instrumentation.
	forwarded  uint64
	suppressed uint64
}

// watcher is one admitted session's subscription to one item, tolerance
// and filter state resolved at admission so the fan-out loop touches no
// maps.
type watcher struct {
	s   *Session
	tol coherency.Requirement
	st  *itemState
}

// New builds a core around the repository's wiring. peers resolves a
// dependent id to its repository (tolerances are read from it); it may be
// nil only with Options.ServeOnly, where no dependent plans exist. The
// repository pointer is shared, not copied: overlay repairs that rewire
// it are picked up automatically through its wiring generation.
func New(self *repository.Repository, peers func(repository.ID) *repository.Repository, opts Options) *Core {
	if self != nil && self.IsSource() {
		opts.Source = true
	}
	return &Core{
		self:     self,
		peers:    peers,
		opts:     opts,
		values:   make(map[string]float64),
		plans:    make(map[string]*plan),
		retired:  make(map[string]Decisions),
		sessions: make(map[string]*Session),
		watchers: make(map[string][]watcher),
	}
}

// ID returns the node's overlay id.
func (c *Core) ID() repository.ID { return c.self.ID }

// SetObs attaches an observer (nil detaches). Observation is passive:
// it never changes a forward/suppress/admit decision.
func (c *Core) SetObs(o *obs.Node) { c.obs = o }

// Obs returns the attached observer, nil when observability is off.
func (c *Core) Obs() *obs.Node { return c.obs }

// IsSource reports whether the core has data-source semantics.
func (c *Core) IsSource() bool { return c.opts.Source }

// Value returns the node's current copy of item.
func (c *Core) Value(item string) (float64, bool) {
	v, ok := c.values[item]
	return v, ok
}

// SetValue records the node's copy of item without any fan-out — raw
// state injection for transports that seed from explicit configuration.
func (c *Core) SetValue(item string, v float64) { c.values[item] = v }

// Seed initializes the node's copy of item (when the node holds it) and
// the filter state of every currently wired edge for it, as if the
// overlay started fully synchronized.
func (c *Core) Seed(item string, v float64) {
	if c.opts.Source || c.holds(item) {
		c.values[item] = v
	}
	p := c.plan(item)
	if p == nil {
		return
	}
	for i := range p.deps {
		p.deps[i].last = v
		p.deps[i].seeded = true
	}
}

// holds reports whether the node maintains item (the source holds
// everything).
func (c *Core) holds(item string) bool {
	if c.opts.Source {
		return true
	}
	_, ok := c.self.Serving[item]
	return ok
}

// Apply runs the full receive pipeline for one update: record the value,
// filter and send to dependents (updating each forwarded edge's
// last-pushed state), then filter and send to the client sessions
// watching the item. It returns the number of dependent copies sent and
// the number of dependent filter checks performed (the paper's
// per-dependent check accounting; sessions are not counted).
//
// The steady-state path performs no allocations: the dependent plan is a
// precomputed slice revalidated by generation counters, and the session
// watcher list is rebuilt only on churn.
func (c *Core) Apply(item string, v float64, t Transport) (forwards, checks int) {
	c.obs.Apply1()
	c.values[item] = v
	if !c.opts.ServeOnly {
		forwards, checks = c.fanToDependents(item, v, t)
	}
	c.fanToSessions(item, v, t)
	return forwards, checks
}

// fanToDependents applies the first-push rule and Eqs. 3+7 to every wired
// dependent edge for the item.
func (c *Core) fanToDependents(item string, v float64, t Transport) (forwards, checks int) {
	p := c.plan(item)
	if p == nil {
		return 0, 0
	}
	// A repository that does not maintain the item serves it to no one
	// (the source maintains everything). The plan records this so the
	// common case costs one branch.
	if !c.opts.Source && !p.hold {
		return 0, 0
	}
	cSelf := p.cSelf
	suppressed := 0
	for i := range p.deps {
		e := &p.deps[i]
		if e.gen != e.to.Gen() {
			// The dependent tightened (or was otherwise rewired):
			// re-resolve its tolerance, keep the edge's filter state.
			e.cDep, e.hasTol = e.to.ServingTolerance(item)
			e.gen = e.to.Gen()
		}
		checks++
		if !e.hasTol {
			continue
		}
		if e.seeded && !c.shouldForward(v, e.last, e.cDep, cSelf) {
			e.suppressed++
			suppressed++
			continue
		}
		if !t.SendToDependent(e.id, item, v, false) {
			// No path to the dependent yet: leave the edge unseeded /
			// un-advanced so it catches up on the next qualifying update.
			continue
		}
		e.last, e.seeded = v, true
		e.forwarded++
		forwards++
	}
	c.obs.DepPass(forwards, suppressed, checks)
	return forwards, checks
}

// fanToSessions applies the same filter, with the node's own serving
// tolerance as cSelf, to every admitted session watching the item.
func (c *Core) fanToSessions(item string, v float64, t Transport) {
	ws := c.watchers[item]
	if len(ws) == 0 {
		return
	}
	var cSelf coherency.Requirement
	if !c.opts.Source {
		cSelf, _ = c.self.ServingTolerance(item)
	}
	now := t.Now()
	delivered, filtered := 0, 0
	for i := range ws {
		w := &ws[i]
		s := w.s
		if w.st.seeded && !c.shouldForward(v, w.st.v, w.tol, cSelf) {
			s.filtered++
			filtered++
			continue
		}
		w.st.v, w.st.seeded = v, true
		s.delivered++
		delivered++
		s.lastServed = now
		t.SendToClient(s, item, v, false)
	}
	c.obs.SessPass(delivered, filtered)
}

// shouldForward is the configured filter: Eqs. 3 and 7, or Eq. 3 alone in
// the naive ablation.
func (c *Core) shouldForward(v, last float64, cDep, cSelf coherency.Requirement) bool {
	if c.opts.Eq3Only {
		return coherency.NeedsUpdate(v, last, cDep)
	}
	return coherency.ShouldForward(v, last, cDep, cSelf)
}

// plan returns the item's dependent plan, building or rebuilding it when
// the node's wiring generation has moved since it was last resolved. A
// nil return means the node currently has no dependents for the item (a
// serve-only core never has any).
func (c *Core) plan(item string) *plan {
	if c.opts.ServeOnly {
		return nil
	}
	p := c.plans[item]
	gen := c.self.Gen()
	if p != nil && p.gen == gen {
		return p
	}
	deps := c.self.Dependents[item]
	if len(deps) == 0 {
		if p != nil {
			// All edges dropped: forget the plan and its filter state (a
			// future re-wire resyncs or starts unseeded), but bank the
			// decision counters so EdgeDecisions stays a full history.
			c.retire(item, p, nil)
			delete(c.plans, item)
		}
		return nil
	}
	np := &plan{gen: gen, deps: make([]depEdge, 0, len(deps))}
	if c.opts.Source {
		np.hold = true // the source maintains everything, exactly
	} else {
		np.cSelf, np.hold = c.self.ServingTolerance(item)
	}
	for _, id := range deps {
		e := depEdge{id: id, to: c.peers(id)}
		e.cDep, e.hasTol = e.to.ServingTolerance(item)
		e.gen = e.to.Gen()
		if p != nil {
			// Carry the filter state (and decision counters) of edges
			// that survived the rewire.
			for j := range p.deps {
				if p.deps[j].id == id {
					old := &p.deps[j]
					e.last, e.seeded = old.last, old.seeded
					e.forwarded, e.suppressed = old.forwarded, old.suppressed
					break
				}
			}
		}
		np.deps = append(np.deps, e)
	}
	if p != nil {
		c.retire(item, p, np) // bank counters of edges that did not survive
	}
	c.plans[item] = np
	return np
}

// retire banks the decision counters of old-plan edges absent from the
// new plan (nil: all of them), so rewires never lose tallies.
func (c *Core) retire(item string, old, next *plan) {
	d := c.retired[item]
	for i := range old.deps {
		e := &old.deps[i]
		if e.forwarded == 0 && e.suppressed == 0 {
			continue
		}
		survived := false
		if next != nil {
			for j := range next.deps {
				if next.deps[j].id == e.id {
					survived = true
					break
				}
			}
		}
		if !survived {
			d.Forwarded += e.forwarded
			d.Suppressed += e.suppressed
		}
	}
	if d != (Decisions{}) {
		c.retired[item] = d
	}
}

// ResetEdge sets the filter state of one outgoing edge: the last value
// "pushed" to dep for item is v, as after a resync. Failover repair calls
// it when a dependent is re-homed onto this node (or back onto it), so a
// revived edge does not filter against pre-crash state.
func (c *Core) ResetEdge(dep repository.ID, item string, v float64) {
	p := c.plan(item)
	if p == nil {
		return
	}
	for i := range p.deps {
		if p.deps[i].id == dep {
			p.deps[i].last, p.deps[i].seeded = v, true
			return
		}
	}
}

// ResyncDependent pushes the node's current copy of every item it serves
// to dep, unconditionally, and seeds the edges' filter state to match —
// the catch-up a dependent needs after failing over to this node. Items
// are pushed in sorted order for a deterministic wire sequence.
func (c *Core) ResyncDependent(dep repository.ID, t Transport) {
	items := make([]string, 0, len(c.self.Dependents))
	for item, deps := range c.self.Dependents {
		for _, id := range deps {
			if id == dep {
				items = append(items, item)
				break
			}
		}
	}
	sort.Strings(items)
	for _, item := range items {
		v, ok := c.values[item]
		if !ok {
			continue
		}
		if t.SendToDependent(dep, item, v, true) {
			c.ResetEdge(dep, item, v)
		}
	}
}

// EdgeDecisions reports the per-item forward/suppress decision totals the
// node has made about its dependents — live edges plus edges retired by
// rewires — the cross-backend parity instrumentation. The map is freshly
// allocated (cold path).
func (c *Core) EdgeDecisions() map[string]Decisions {
	out := make(map[string]Decisions, len(c.plans))
	for item, d := range c.retired {
		out[item] = d
	}
	for item, p := range c.plans {
		d := out[item]
		for i := range p.deps {
			d.Forwarded += p.deps[i].forwarded
			d.Suppressed += p.deps[i].suppressed
		}
		if d.Forwarded+d.Suppressed > 0 {
			out[item] = d
		}
	}
	return out
}

// Decisions is a forward/suppress decision tally.
type Decisions struct {
	Forwarded  uint64
	Suppressed uint64
}

// ShardOf maps an item to its shard: FNV-1a over the item name, mod the
// shard count. Every layer that partitions items — the sharded simulator
// (dissemination.RunShards), live's per-shard cores — uses this one
// mapping, so a batch produced by a parent shard lands in the same shard
// at the child.
func ShardOf(item string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(item); i++ {
		h = (h ^ uint32(item[i])) * 16777619
	}
	return int(h % uint32(shards))
}

// CoalesceBatch is the one statement of the in-batch coalescing rule
// every batched transport shares: within a multi-update batch, only an
// item's newest (last) occurrence is applied — a value superseded inside
// its own batch is never disseminated. It returns the surviving indexes
// in ascending batch position. itemAt indexes the batch's item names.
//
// Stating the rule once matters for the same reason the first-push rule
// is stated once in this package: two transports re-deriving "last value
// wins" independently is exactly the kind of drift the cross-backend
// parity test exists to catch.
func CoalesceBatch(n int, itemAt func(int) string) []int {
	out := make([]int, 0, n)
	if n > 16 {
		// Large batch: one map pass instead of the quadratic scan.
		last := make(map[string]int, n)
		for i := 0; i < n; i++ {
			last[itemAt(i)] = i
		}
		for i := 0; i < n; i++ {
			if last[itemAt(i)] == i {
				out = append(out, i)
			}
		}
		return out
	}
	for i := 0; i < n; i++ {
		superseded := false
		for j := i + 1; j < n; j++ {
			if itemAt(j) == itemAt(i) {
				superseded = true
				break
			}
		}
		if !superseded {
			out = append(out, i)
		}
	}
	return out
}
