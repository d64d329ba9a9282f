package live

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"d3t/internal/coherency"
	dnode "d3t/internal/node"
	"d3t/internal/obs"
	"d3t/internal/query"
	"d3t/internal/repository"
	"d3t/internal/sim"
)

// This file serves client sessions over channels: the channel transport
// of the node core's serving layer. A session subscribes to items with
// its own tolerances, is admitted to a repository under the session cap
// (overflow redirects to the next candidate), receives only updates its
// serving core's per-client filter forwards, and migrates to another
// repository, with a resync, when heartbeat silence marks its repository
// dead. The filter state and decision counters live in the core
// (node.Session); this side owns the delivery channel, placement
// preferences, and the silence clock.

// ClientUpdate is one value pushed to a session.
type ClientUpdate struct {
	Item  string
	Value float64
	// Resync marks a catch-up push (admission or migration), as opposed
	// to a tolerance-violating live update.
	Resync bool
}

// Session is one client's subscription to a running cluster.
type Session struct {
	name string
	c    *Cluster
	ch   chan ClientUpdate
	ns   *dnode.Session

	// q and qeval make the session a derived-data query (SubscribeQuery):
	// the evaluator is fed by every filtered input delivery, under the
	// serving core's mutex. Both are set before admission and immutable
	// after; qobs tracks the serving node's observer (written at attach
	// under topoMu write, read on the push path under topoMu read).
	q     *query.Query
	qeval *query.Eval
	qobs  *obs.Node

	mu         sync.Mutex
	repo       repository.ID
	preferred  []repository.ID // admission preference order, reused on migration
	redirected bool
	migrations int
	dropped    uint64
	closed     bool
}

// Updates returns the session's delivery channel. A slow consumer does
// not block the cluster: deliveries that find the channel full are
// dropped and counted (Dropped).
func (s *Session) Updates() <-chan ClientUpdate { return s.ch }

// Name returns the client name the session was admitted under.
func (s *Session) Name() string { return s.name }

// Repo returns the repository currently serving the session.
func (s *Session) Repo() repository.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.repo
}

// Redirected reports whether admission skipped the preferred repository.
func (s *Session) Redirected() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.redirected
}

// Migrations reports how many times the session re-homed after its
// repository died.
func (s *Session) Migrations() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.migrations
}

// withCore runs fn with the session's core-side state serialized against
// the serving node (lock order: topoMu, session-core mu; the session
// mutex is never held across either).
func (s *Session) withCore(fn func(ns *dnode.Session)) {
	s.c.topoMu.RLock()
	defer s.c.topoMu.RUnlock()
	s.mu.Lock()
	id := s.repo
	s.mu.Unlock()
	if n, ok := s.c.nodes[id]; ok {
		mu, _ := n.sessionCore()
		mu.Lock()
		defer mu.Unlock()
		fn(s.ns)
		return
	}
	// Detached (departed or mid-migration): nothing else touches the
	// node session while topoMu is held shared.
	fn(s.ns)
}

// Delivered, Filtered and Dropped report the session's fan-out counters.
func (s *Session) Delivered() uint64 {
	var out uint64
	s.withCore(func(ns *dnode.Session) { out = ns.Delivered() })
	return out
}
func (s *Session) Filtered() uint64 {
	var out uint64
	s.withCore(func(ns *dnode.Session) { out = ns.Filtered() })
	return out
}
func (s *Session) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// QueryCounts reports a query session's eval/recompute counters: input
// deliveries evaluated, and result recomputations (one per delivery once
// every input has a value). Zeros for plain sessions. Counts depend only
// on the delivery sequence the per-client filter produced, so they must
// agree with every other backend serving the same stream.
func (s *Session) QueryCounts() (evals, recomputes uint64) {
	if s.qeval == nil {
		return 0, 0
	}
	s.withCore(func(*dnode.Session) { evals, recomputes = s.qeval.Evals(), s.qeval.Recomputes() })
	return evals, recomputes
}

// QueryResult returns a query session's current evaluator result (false
// for plain sessions and before every input has a value).
func (s *Session) QueryResult() (float64, bool) {
	var (
		v  float64
		ok bool
	)
	if s.qeval == nil {
		return 0, false
	}
	s.withCore(func(*dnode.Session) { v, ok = s.qeval.Result() })
	return v, ok
}

// Value returns the session's current copy of item.
func (s *Session) Value(item string) (float64, bool) {
	var (
		v  float64
		ok bool
	)
	s.withCore(func(ns *dnode.Session) { v, ok = ns.Value(item) })
	return v, ok
}

// push queues one update without blocking; a full channel drops the
// update and counts it. Callers hold the serving node's mutex (or the
// cluster's write lock), which is what excludes a concurrent Close.
func (s *Session) push(u ClientUpdate) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	select {
	case s.ch <- u:
	default:
		s.dropped++
	}
	s.mu.Unlock()
}

// Close departs the session: it is removed from its repository and its
// channel is closed, so ranging consumers terminate. Every push happens
// under topoMu (read) plus the serving node's mutex; Close holds the
// write lock and detaches first, so no send can follow the close.
func (s *Session) Close() {
	s.c.topoMu.Lock()
	defer s.c.topoMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	id := s.repo
	s.repo = repository.NoID
	s.mu.Unlock()
	if n, ok := s.c.nodes[id]; ok {
		mu, core := n.sessionCore()
		mu.Lock()
		core.DropSession(s.name)
		delete(n.sess, s.name)
		mu.Unlock()
	}
	close(s.ch)
}

// Subscribe admits a client session: it attaches to the first candidate
// repository — the preferred ids in order, then every repository by id —
// that is alive, already serves every watched item at least as
// stringently as the client demands, and is under Options.SessionCap.
// Landing on other than the first candidate counts as a redirect. The
// session immediately receives a resync push of the repository's current
// copies.
func (c *Cluster) Subscribe(name string, wants map[string]coherency.Requirement, preferred ...repository.ID) (*Session, error) {
	return c.subscribe(name, wants, nil, preferred)
}

// SubscribeQuery admits a derived-data query session (internal/query):
// an input subscription to the query's items at their allocated
// tolerances, recombined by an incremental evaluator fed by every
// filtered delivery. With the default repository-side placement the
// Updates channel carries only published result changes, under the
// query's result pseudo-item (Query.ResultItem); with PlaceClient it
// carries the raw inputs (the evaluator still runs, exposed via
// QueryResult/QueryCounts). Placement trades last-hop message cost; the
// evaluation counts are identical either way.
func (c *Cluster) SubscribeQuery(q query.Query, preferred ...repository.ID) (*Session, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if q.Name == "" {
		return nil, fmt.Errorf("live: query session needs a name")
	}
	return c.subscribe(q.Name, q.Wants(), &q, preferred)
}

func (c *Cluster) subscribe(name string, wants map[string]coherency.Requirement, q *query.Query, preferred []repository.ID) (*Session, error) {
	if len(wants) == 0 {
		return nil, fmt.Errorf("live: session %q wants nothing", name)
	}
	s := &Session{
		name:      name,
		c:         c,
		ch:        make(chan ClientUpdate, c.opts.Buffer),
		ns:        dnode.NewSession(name, wants),
		preferred: append([]repository.ID(nil), preferred...),
		repo:      repository.NoID,
	}
	if q != nil {
		s.q = q
		s.qeval = query.NewEval(*q)
	}
	s.ns.SetTag(s)
	start := c.now()
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	target := c.placeSessionLocked(s, preferred, repository.NoID)
	if target == repository.NoID {
		return nil, fmt.Errorf("live: no repository can serve session %q under the cap", name)
	}
	c.attachSessionLocked(s, target)
	if first := c.sessionCandidatesLocked(preferred, repository.NoID); len(first) > 0 && target != first[0] {
		s.mu.Lock()
		s.redirected = true
		s.mu.Unlock()
		c.sessionRedirects++
		// The redirect is charged to the repository that turned the
		// client away, with the whole admission walk as its latency.
		c.nodes[first[0]].obs.Redirect1()
		c.nodes[first[0]].obs.ObserveRedirectLatency(int64(c.now() - start))
	}
	return s, nil
}

// SessionRedirects and SessionMigrations report the cluster-wide
// admission and repair counters of the serving layer.
func (c *Cluster) SessionRedirects() int {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	return c.sessionRedirects
}
func (c *Cluster) SessionMigrations() int {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	return c.sessionMigrations
}

// sessionCandidatesLocked returns the admission walk order: the preferred
// ids first, then every repository ascending, without duplicates and
// excluding the source and `skip`.
func (c *Cluster) sessionCandidatesLocked(preferred []repository.ID, skip repository.ID) []repository.ID {
	seen := make(map[repository.ID]bool, len(c.nodes))
	var out []repository.ID
	add := func(id repository.ID) {
		if id == skip || id == repository.SourceID || seen[id] {
			return
		}
		if _, ok := c.nodes[id]; !ok {
			return
		}
		seen[id] = true
		out = append(out, id)
	}
	for _, id := range preferred {
		add(id)
	}
	rest := make([]repository.ID, 0, len(c.nodes))
	for id := range c.nodes {
		rest = append(rest, id)
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
	for _, id := range rest {
		add(id)
	}
	return out
}

// placeSessionLocked walks the candidates and returns the first that is
// alive, serves the session's watch list stringently enough, and has
// session capacity — or NoID. The per-candidate policy (cap, serving
// stringency) is the core's admission rule.
func (c *Cluster) placeSessionLocked(s *Session, preferred []repository.ID, skip repository.ID) repository.ID {
	for _, id := range c.sessionCandidatesLocked(preferred, skip) {
		n := c.nodes[id]
		if n.dead.Load() {
			continue
		}
		mu, core := n.sessionCore()
		mu.Lock()
		ok := core.Session(s.name) == nil &&
			core.HasSessionRoom() && core.CanServeSession(s.ns.Wants())
		mu.Unlock()
		if ok {
			return id
		}
	}
	return repository.NoID
}

// attachSessionLocked wires the session into the repository's core,
// which resyncs it to the repository's current copies and stamps its
// service clock. The caller holds topoMu (write).
func (c *Cluster) attachSessionLocked(s *Session, id repository.ID) {
	n := c.nodes[id]
	s.mu.Lock()
	s.repo = id
	s.mu.Unlock()
	s.qobs = n.obs // query passes are charged to the serving node
	mu, core := n.sessionCore()
	tr := &n.shards[0].tr
	if n.sessCore != nil {
		tr = &n.sessTr
	}
	mu.Lock()
	n.sess[s.name] = s
	core.ForceAdmit(s.ns, tr)
	mu.Unlock()
}

// sessionWatchdogLoop migrates sessions away from silent repositories:
// a session whose core records no service — no delivery, no resync, no
// heartbeat touch — for FailWindow re-homes onto the next candidate and
// resyncs to its current copies, mirroring the repository-to-repository
// failover of the overlay itself. The silence clock is the core's
// (Session.LastServed, refreshed by heartbeats via TouchSessions), on
// the cluster transport's time base.
func (c *Cluster) sessionWatchdogLoop() {
	window := sim.Time(c.opts.FailWindow / time.Microsecond)
	ticker := time.NewTicker(c.tickerPeriod())
	defer ticker.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-ticker.C:
		}
		now := c.now()
		c.topoMu.RLock()
		var stale []*Session
		for _, n := range c.nodes {
			mu, core := n.sessionCore()
			mu.Lock()
			for _, ns := range core.StaleSessions(now, window) {
				if s, ok := ns.Tag().(*Session); ok {
					stale = append(stale, s)
				}
			}
			mu.Unlock()
		}
		c.topoMu.RUnlock()
		sort.Slice(stale, func(i, j int) bool { return stale[i].name < stale[j].name })
		for _, s := range stale {
			c.migrateSession(s)
		}
	}
}

// migrateSession re-homes one session off its (presumed dead)
// repository. The node.Session object carries the client's current
// copies along, so the new core resyncs only values that differ.
func (c *Cluster) migrateSession(s *Session) {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	s.mu.Lock()
	old := s.repo
	closed := s.closed
	s.mu.Unlock()
	if closed || old == repository.NoID {
		return
	}
	// Walk the session's own admission preference order again, so a
	// migration lands on its designated nearby alternative when one was
	// named — the same nearest-first policy the sim fleet applies.
	target := c.placeSessionLocked(s, s.preferred, old)
	if target == repository.NoID {
		return // nothing can take it; the watchdog retries next pass
	}
	if n, ok := c.nodes[old]; ok {
		mu, core := n.sessionCore()
		mu.Lock()
		core.DropSession(s.name)
		delete(n.sess, s.name)
		mu.Unlock()
	}
	s.mu.Lock()
	s.migrations++
	s.mu.Unlock()
	c.attachSessionLocked(s, target)
	c.sessionMigrations++
	c.nodes[target].obs.Migrate1()
}
