// Package live runs the paper's distributed dissemination algorithm in
// real time on goroutines: every relay is a goroutine pool, the source
// applies publishes in the caller, push connections are channels, and
// communication/computation delays are real (scaled) durations. It
// demonstrates the same filtering logic as the discrete-event simulator
// outside simulated time — the "evaluation in a real setting" the paper
// leaves as future work — on a single machine.
//
// The protocol state machine itself — last-pushed-value tracking, the
// Eq. 3+7 filters for dependents and client sessions, resync after
// failover — lives in the transport-agnostic core (internal/node); this
// package is the channel transport around it: goroutines, inbox/outbox
// channels, real-time heartbeats and silence watchdogs.
//
// # Sharding and batches
//
// With Options.Shards > 1 the cluster re-seats on the one item
// partition (internal/node.ShardOf): every node splits into one
// core per shard, each fed by its own batch channel and drained by its
// own worker goroutine, so independent items flow through a node in
// parallel. Edges carry batches — one channel send moves every update a
// fan-out pass produced for a dependent's shard — replacing the
// per-update sends of the unsharded path. The item→shard mapping is
// global, so a batch a parent shard emits lands in the same shard at the
// child and per-item FIFO order (the basis of cross-backend decision
// parity) is preserved. Client sessions watch items across shards, so
// with sharding enabled they are served by a dedicated serve-only core
// fed after each shard's dependent pass; with one shard the single core
// serves both, exactly as before.
//
// # The hop
//
// The source applies in the caller: Publish and PublishBatch run the
// source shard's pass in the calling goroutine, under a per-shard publish
// mutex that keeps each edge FIFO, so the source has no inbox and no
// worker. An edge is the dependent's inbox: a pass sends its batches
// straight into the (dependent, shard) inbox, with no forwarding goroutine
// or edge channel in between, so a copy costs one channel operation per
// hop. Sends and receives try the channel alone first and only fall back
// to a select with the cluster's stop channel when they would block
// (send, recv): the stop channel is shared by every goroutine and must
// stay off the hot path. CommDelay is a per-hop latency, the simulator's
// model: the sender stamps each batch with the time it is due at the
// receiver, and the receiving worker waits for it (Stop wakes the wait),
// so batches in flight on one edge overlap instead of queueing behind
// each other. A single-update batch carries its update inline; a larger
// one carries a pooled fixed-capacity slice that the receiving worker
// returns after its pass, so a steady stream of publishes allocates
// nothing.
//
// # Drains
//
// A relay's worker that wakes waits for the due stamp of the batch that
// woke it, then takes every batch queued behind it that is due by then —
// a drain. The first queued batch not yet due heads the next drain, so no
// batch is applied before it is due and none waits for a later one: under
// steady traffic a hop still costs CommDelay. The worker applies the
// drain in arrival order under one topoMu read hold and one shard mutex
// hold, with one write-ahead-log commit for the drain, then sends one
// merged batch per dependent: the copies the drain produced for that
// dependent, in decision order. A merge never coalesces (CoalesceBatch
// runs only on a published batch), so each update is still decided on
// its own and the decisions match a one-at-a-time run. A merged batch
// carries the earliest birth stamp of its stamped inputs, and a sampled
// batch (a trace id) is never merged with another, so a trace follows its
// own update. netio's relays drain their read buffer by the same rule.
package live

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	dnode "d3t/internal/node"
	"d3t/internal/obs"
	"d3t/internal/query"
	"d3t/internal/repository"
	"d3t/internal/sim"
	"d3t/internal/tree"
	"d3t/internal/wal"
)

// Options configures a live cluster.
type Options struct {
	// CommDelay is the one-way latency of every hop between repositories:
	// each batch a node hands to a dependent (updates, keep-alives,
	// failover syncs) is due there CommDelay after it was sent, and
	// batches in flight on one edge overlap rather than queue behind each
	// other. CompDelay is the per-copy processing cost at a node, paid
	// before each send; the source's is charged to the Publish caller.
	// Both may be zero for fastest delivery.
	CommDelay time.Duration
	CompDelay time.Duration
	// OnDeliver, when set, observes every delivery at a repository. It is
	// called from node goroutines and must be safe for concurrent use.
	OnDeliver func(repo repository.ID, item string, value float64)
	// Buffer sizes every relay (node, shard) inbox and every session's
	// delivery channel (default 256). The inbox is the only buffer on an
	// edge — parents send straight into it — so a full inbox applies
	// backpressure to every sender, mirroring a congested node; Publish
	// blocks while a source dependent's inbox is full. A relay's drain
	// takes at most what its inbox holds.
	Buffer int

	// Shards splits every node into per-item-shard cores fed by batch
	// channels (<= 1 keeps the single-core node). See the package
	// comment.
	Shards int

	// Heartbeat, when positive, makes every node send keep-alives to its
	// current children on this interval, so dependents can tell a quiet
	// parent from a dead one.
	Heartbeat time.Duration
	// FailWindow, when positive, arms failure detection: a node that has
	// heard nothing (no update, no heartbeat) from a parent for this long
	// declares it dead and re-homes onto its backup list. It should be a
	// small multiple of Heartbeat.
	FailWindow time.Duration
	// Backups maps each repository to its ranked backup-parent list
	// (tree.LeLA.BackupParents precomputes one). On detection the
	// dependent re-homes each severed item to the first live backup that
	// already serves it stringently enough and has a free connection slot.
	Backups map[repository.ID][]repository.ID

	// Clock overrides the cluster's time source (default time.Now). All
	// silence measurement — parent liveness, session staleness — reads
	// it, so tests drive failure detection by advancing an injected clock
	// instead of sleeping through real windows.
	Clock func() time.Time

	// SessionCap caps the client sessions one repository serves (0 =
	// unlimited); Subscribe redirects overflow to the next candidate.
	SessionCap int

	// QueryInterval is the query clock's tick length (on the cluster's
	// microsecond time base) for query sessions (SubscribeQuery); it
	// defaults to sim.Second. Eval/recompute counts are independent of
	// it; only windowed result values depend on the tick width.
	QueryInterval sim.Time

	// Obs, when set, collects per-node counters, latency histograms,
	// per-edge delay EWMAs and (when Obs.Tracer is armed) sampled update
	// traces from the running cluster. Observation is passive: a cluster
	// with Obs attached makes exactly the decisions it makes without.
	Obs *obs.Tree

	// Durability, when set, gives every (node, shard) core a write-ahead
	// log with periodic snapshots under Durability.Dir (one subdirectory
	// per repoNNN/shardNN), group-committed once per publish at the source
	// and once per drain at a relay, so on a relay SnapshotEvery counts
	// drains and a segment holds up to SnapshotEvery inboxes' worth of
	// batches. It is honored by NewDurableCluster, which also recovers
	// whatever state the directory already holds; NewCluster ignores it.
	Durability *wal.Options
}

// Update is one (item, value) pair of a published batch.
type Update struct {
	Item  string
	Value float64
}

// Cluster is a running set of node goroutines wired per an overlay.
type Cluster struct {
	overlay *tree.Overlay
	opts    Options
	nshards int
	nodes   map[repository.ID]*node
	start   time.Time
	// epoch is the real-time base of due stamps: CommDelay is a real
	// delay whatever clock Options.Clock injects.
	epoch time.Time
	done  chan struct{}
	wg    sync.WaitGroup

	// topoMu guards the overlay wiring (Parents/Dependents/Serving) and
	// session placement: failure repair rewires the overlay while node
	// goroutines read it, and migration moves sessions between node
	// cores. Lock order is a source shard's pub, then topoMu, then a
	// node's mu, then a shard's mu, then a session's mu; no path may
	// acquire an earlier mutex while holding a later one.
	topoMu    sync.RWMutex
	failovers int

	sessionRedirects  int
	sessionMigrations int

	closeOnce sync.Once
}

// upd is one in-flight update copy.
type upd struct {
	item  string
	value float64
}

// batch is the unit every channel carries: the updates one pass produced
// for one (dependent, shard) edge, or a keep-alive. A single-update batch
// carries its update inline (one) and allocates nothing; a batch of two
// or more that crosses an edge holds a pooled ups slice of capacity
// mergeCap, which the receiving worker returns. A published batch the
// source applies in the caller may hold any ups slice, since it crosses
// no edge. due is the real time (nanoseconds on Cluster.epoch) the
// receiver may handle the batch at, 0 without a CommDelay. The
// observability stamps (sent, born, tid) are zero unless an obs tree is
// attached; failover sync sends leave them zero so repair pushes never
// pollute the hop histograms.
type batch struct {
	from      repository.ID
	heartbeat bool
	one       [1]upd
	ups       []upd
	due       int64

	sent sim.Time // cluster time the sender handed the batch to the edge
	born sim.Time // cluster time the batch's tick entered at the source
	tid  uint64   // sampled trace id (0 = untraced)
}

// updates returns the batch's updates: none for a keep-alive, else ups
// when it has several and the inline one when it has one.
func (b *batch) updates() []upd {
	switch {
	case b.heartbeat:
		return nil
	case b.ups != nil:
		return b.ups
	}
	return b.one[:]
}

// mergeCap is the capacity of a pooled ups slice: a batch holds at most
// this many updates, and a pass's next copy for the same dependent opens
// another batch.
const mergeCap = 32

// upsPool recycles the ups arrays of multi-update batches: a sender takes
// one when a batch gains its second update and the receiving worker puts
// it back after its pass, so merging allocates nothing in steady state.
var upsPool = sync.Pool{New: func() any { return new([mergeCap]upd) }}

// add appends u to a batch that holds at least one update, moving it onto
// a pooled slice at its second. It reports false, leaving the batch as it
// was, when the batch is full.
func (b *batch) add(u upd) bool {
	switch {
	case b.ups == nil:
		b.ups = append(upsPool.Get().(*[mergeCap]upd)[:0], b.one[0])
	case len(b.ups) == mergeCap:
		return false
	}
	b.ups = append(b.ups, u)
	return true
}

// release returns a received batch's pooled ups array.
func (b *batch) release() {
	if b.ups != nil {
		upsPool.Put((*[mergeCap]upd)(b.ups[:mergeCap]))
		b.ups = nil
	}
}

// node is one overlay repository: per-shard cores and channels, plus the
// node-level failure-detection and session state.
type node struct {
	repo *repository.Repository

	// dead is set by Crash; every goroutine reads it lock-free.
	dead atomic.Bool

	// mu guards lastHeard — and, with sharding enabled, the dedicated
	// session core. With one shard, session state is guarded by the
	// single shard's mutex instead (one lock per node, exactly the
	// pre-sharding discipline). lastHeard is kept only while failure
	// detection is armed (Options.FailWindow > 0): the watchdog is its
	// only reader.
	mu        sync.Mutex
	lastHeard map[repository.ID]time.Time

	// obs is the node's observer (nil when Options.Obs is unset); the
	// shard cores and the session core share it — its record paths are
	// atomic, so cross-shard concurrency is safe.
	obs *obs.Node

	shards []*nodeShard

	// sessCore serves client sessions when sharding splits the node
	// (nil with one shard: shards[0].core serves both roles). sess maps
	// admitted session names to their channel-side handles; it is
	// guarded by the session core's mutex.
	sessCore *dnode.Core
	sessTr   transport
	sess     map[string]*Session
}

// nodeShard is one item partition of a node: its own core (values,
// per-edge filter state for the shard's items), batch inbox (nil at the
// source, which applies in the caller), and out edges — each dependent's
// inbox for the same shard.
type nodeShard struct {
	mu   sync.Mutex
	core *dnode.Core
	in   chan batch
	out  map[repository.ID]chan batch
	tr   transport
	// dur is the shard's write-ahead log glue (nil without durability);
	// it is guarded by mu, the same lock that guards the core it shadows.
	dur *dnode.Durable
	// pub serializes publishes on a source shard, so each edge stays FIFO
	// from apply to send. It is held across the pass's sends, which give
	// up once the cluster stops; only Stop takes it otherwise.
	pub sync.Mutex
}

// sessionCore returns the mutex and core that own the node's client
// sessions.
func (n *node) sessionCore() (*sync.Mutex, *dnode.Core) {
	if n.sessCore != nil {
		return &n.mu, n.sessCore
	}
	return &n.shards[0].mu, n.shards[0].core
}

// shardOf returns the shard owning the item.
func (n *node) shardOf(item string) *nodeShard {
	return n.shards[dnode.ShardOf(item, len(n.shards))]
}

// depSend is one per-dependent batch awaiting the post-lock flush.
type depSend struct {
	ch chan batch
	b  batch
}

// transport adapts one core's decisions to channels. Dependent copies are
// grouped into batches as they are decided and flushed after the locks
// drop (a full peer inbox applies backpressure and must not be awaited
// under a mutex); session pushes are non-blocking and happen inline.
//
// A pass is a run of segments: one per traced batch it applies, and one
// per run of untraced batches between them. Per segment and dependent
// the copies go into one batch (more if they exceed mergeCap), so
// untraced batches merge while a traced one keeps its own batches and
// trace id.
type transport struct {
	c  *Cluster
	sh *nodeShard // nil for the dedicated session core
	// sends is the pass's batches in first-forward order, reused across
	// passes; the ups slices inside are not reused, since the receiving
	// worker owns them after the send. seg indexes the current segment's
	// first batch, and born/tid are the applied batch's stamps.
	sends []depSend
	seg   int
	born  sim.Time
	tid   uint64
}

// begin starts a pass.
func (t *transport) begin() {
	t.sends, t.seg, t.tid = t.sends[:0], 0, 0
}

// segment precedes the copies of the pass's next applied batch b: a
// traced batch, and the batch after one, open a new segment.
func (t *transport) segment(b *batch) {
	if b.tid != 0 || t.tid != 0 {
		t.seg = len(t.sends)
	}
	t.born, t.tid = b.born, b.tid
}

func (t *transport) Now() sim.Time { return t.c.now() }

func (t *transport) SendToDependent(dep repository.ID, item string, v float64, resync bool) bool {
	if resync {
		// The collected flush ships the pass's own updates, so it cannot
		// carry arbitrary (item, value) resync pairs. Refuse — the edge
		// state stays untouched — and let failover do its own paired sync
		// sends (Cluster.failover), the only resync path this runtime
		// uses.
		return false
	}
	if t.sh == nil {
		return false // serve-only session core never fans to dependents
	}
	ch := t.sh.out[dep]
	if ch == nil {
		return false
	}
	u := upd{item, v}
	for i := len(t.sends) - 1; i >= t.seg; i-- {
		if s := &t.sends[i]; s.ch == ch {
			if s.b.add(u) {
				// The earliest stamp wins; an unstamped copy (a failover
				// sync's) has none to offer.
				if s.b.born == 0 || t.born != 0 && t.born < s.b.born {
					s.b.born = t.born
				}
				return true
			}
			break
		}
	}
	t.sends = append(t.sends, depSend{ch: ch, b: batch{one: [1]upd{u}, born: t.born, tid: t.tid}})
	return true
}

func (t *transport) SendToClient(ns *dnode.Session, item string, v float64, resync bool) {
	s, ok := ns.Tag().(*Session)
	if !ok {
		return
	}
	if s.qeval != nil {
		// A query session: recombine under the serving core's mutex (the
		// push path already holds it). Repository-side placement ships
		// only published result changes down the channel; client-side
		// placement ships the raw input too, same counts either way.
		interval := t.c.opts.QueryInterval
		if interval <= 0 {
			interval = sim.Second
		}
		res, evalOK, changed := s.qeval.Observe(item, v, int64(t.c.now()/interval))
		recomputed := 0
		if evalOK {
			recomputed = 1
		}
		s.qobs.QueryPass(1, recomputed)
		if s.q.Placement != query.PlaceClient {
			if evalOK && changed && (s.q.Pred == nil || s.q.Pred.Holds(res)) {
				s.push(ClientUpdate{Item: s.q.ResultItem(), Value: res, Resync: resync})
			}
			return
		}
	}
	s.push(ClientUpdate{Item: item, Value: v, Resync: resync})
}

// clock is the cluster's wall source (injectable for tests).
func (c *Cluster) clock() time.Time {
	if c.opts.Clock != nil {
		return c.opts.Clock()
	}
	return time.Now()
}

// now is the cluster's single time base: microseconds since creation, as
// sim.Time. Session service clocks are stamped with it (the transport's
// Now) and the session watchdog compares against it.
func (c *Cluster) now() sim.Time {
	return sim.Time(c.clock().Sub(c.start) / time.Microsecond)
}

// tickerPeriod paces a detection loop: a quarter of the window in real
// time, but never slower than a millisecond when a test clock drives the
// window (the injected clock may jump a whole window in one step and the
// loop must notice promptly).
func (c *Cluster) tickerPeriod() time.Duration {
	period := c.opts.FailWindow / 4
	if c.opts.Clock != nil || period <= 0 {
		period = time.Millisecond
	}
	return period
}

// send hands b to ch. It tries the channel alone first and selects on
// the stop channel only when ch is full, so an uncontended send never
// touches the lock every goroutine shares. It reports false if the
// cluster stopped while the send was blocked.
func (c *Cluster) send(ch chan<- batch, b batch) bool {
	select {
	case ch <- b:
		return true
	default:
	}
	select {
	case ch <- b:
		return true
	case <-c.done:
		return false
	}
}

// recv takes the next batch off ch, the same way round as send: the stop
// channel is consulted only when ch is empty. It reports false if the
// cluster stopped while the receive was blocked.
func (c *Cluster) recv(ch <-chan batch) (batch, bool) {
	select {
	case b := <-ch:
		return b, true
	default:
	}
	select {
	case b := <-ch:
		return b, true
	case <-c.done:
		return batch{}, false
	}
}

// stopped reports whether Stop has begun. Publishers check it before
// sending, since the fast path of send never looks at the stop channel.
func (c *Cluster) stopped() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// hopDue stamps a batch a node hands to a dependent: the real time it is
// due at the receiver, CommDelay from now (0 without a delay).
func (c *Cluster) hopDue() int64 {
	if c.opts.CommDelay <= 0 {
		return 0
	}
	return int64(time.Since(c.epoch) + c.opts.CommDelay)
}

// await parks a worker until a batch's due stamp on the worker's timer.
// It reports false if the cluster stopped during the wait.
func (c *Cluster) await(due int64, timer *time.Timer) bool {
	wait := time.Duration(due) - time.Since(c.epoch)
	if wait <= 0 {
		return true
	}
	timer.Reset(wait)
	select {
	case <-timer.C:
		return true
	case <-c.done:
		return false
	}
}

// NewCluster builds (but does not start) a live cluster over the overlay.
func NewCluster(o *tree.Overlay, opts Options) *Cluster {
	if opts.Buffer <= 0 {
		opts.Buffer = 256
	}
	if opts.FailWindow > 0 && opts.Heartbeat <= 0 {
		// Armed detection without keep-alives would declare every quiet
		// parent dead; default to a few beats per window.
		opts.Heartbeat = opts.FailWindow / 4
		if opts.Heartbeat <= 0 {
			opts.Heartbeat = time.Millisecond
		}
	}
	nshards := opts.Shards
	if nshards < 1 {
		nshards = 1
	}
	c := &Cluster{
		overlay: o,
		opts:    opts,
		nshards: nshards,
		nodes:   make(map[repository.ID]*node, len(o.Nodes)),
		epoch:   time.Now(),
		done:    make(chan struct{}),
	}
	c.start = c.clock()
	for _, r := range o.Nodes {
		n := &node{
			repo:      r,
			sess:      make(map[string]*Session),
			lastHeard: make(map[repository.ID]time.Time),
			shards:    make([]*nodeShard, nshards),
		}
		for s := range n.shards {
			shOpts := dnode.Options{}
			if nshards == 1 {
				shOpts.SessionCap = opts.SessionCap
			}
			sh := &nodeShard{
				core: dnode.New(r, o.Node, shOpts),
				out:  make(map[repository.ID]chan batch),
			}
			if !r.IsSource() {
				sh.in = make(chan batch, opts.Buffer)
			}
			sh.tr.c, sh.tr.sh = c, sh
			n.shards[s] = sh
		}
		if nshards > 1 {
			n.sessCore = dnode.New(r, o.Node, dnode.Options{ServeOnly: true, SessionCap: opts.SessionCap})
			n.sessTr.c = c
		}
		if opts.Obs != nil {
			n.obs = opts.Obs.Node(r.ID)
			for _, sh := range n.shards {
				sh.core.SetObs(n.obs)
			}
			if n.sessCore != nil {
				n.sessCore.SetObs(n.obs)
			}
		}
		c.nodes[r.ID] = n
	}
	// Wire the edges: a shard's out edge to a dependent is that
	// dependent's inbox for the same shard.
	for _, n := range c.nodes {
		for s, sh := range n.shards {
			for _, deps := range n.repo.Dependents {
				for _, dep := range deps {
					sh.out[dep] = c.nodes[dep].shards[s].in
				}
			}
		}
	}
	return c
}

// Start launches one worker goroutine per relay (node, shard) — and, when
// failure handling is armed, one heartbeater per node, one watchdog per
// non-source node and one session watchdog. It must be called once.
// Publishes before Start are applied at the source and queue in its
// dependents' inboxes, so each relay's first drain takes that backlog.
func (c *Cluster) Start() {
	now := c.clock()
	for _, n := range c.nodes {
		if c.opts.FailWindow > 0 {
			n.mu.Lock()
			for _, pid := range c.overlay.ParentsOf(n.repo.ID) {
				n.lastHeard[pid] = now // grace period: silence counts from start
			}
			n.mu.Unlock()
		}
		for _, sh := range n.shards {
			if sh.in == nil {
				continue // the source applies in its publishers
			}
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				c.runShard(n, sh)
			}()
		}
		if c.opts.Heartbeat > 0 {
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				c.heartbeatLoop(n)
			}()
		}
		if c.opts.FailWindow > 0 && !n.repo.IsSource() {
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				c.watchdogLoop(n)
			}()
		}
	}
	if c.opts.FailWindow > 0 {
		// One watchdog for the serving layer: sessions whose repository
		// has gone silent migrate to the next candidate.
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.sessionWatchdogLoop()
		}()
	}
}

// Stop terminates all node goroutines and waits for them and for any
// publish still applying, then closes every shard's write-ahead log
// (flushing and fsyncing per policy), so a stopped durable cluster's
// directories hold its exact final state.
func (c *Cluster) Stop() {
	c.closeOnce.Do(func() { close(c.done) })
	c.wg.Wait()
	for _, sh := range c.nodes[repository.SourceID].shards {
		// A publish holds pub until it returns, and one that takes it
		// from now on finds the cluster stopped.
		sh.pub.Lock()
		sh.pub.Unlock()
	}
	c.closeLogs()
}

// Publish applies a new value of item at the source, in the calling
// goroutine, and sends the copies it forwards. It blocks while a source
// dependent's inbox is full (and for the source's CompDelay), and returns
// false if the cluster is stopped.
func (c *Cluster) Publish(item string, value float64) bool {
	src := c.nodes[repository.SourceID]
	return c.publish(src, src.shardOf(item), batch{one: [1]upd{{item, value}}})
}

// PublishBatch applies one tick's worth of source updates as batches,
// the way Publish applies one: same-item updates coalesce to the newest
// value, and each shard applies its partition as a single batch (in
// shard order). It returns false if the cluster is stopped.
func (c *Cluster) PublishBatch(ups []Update) bool {
	src := c.nodes[repository.SourceID]
	perShard := make([][]upd, len(src.shards))
	for _, i := range dnode.CoalesceBatch(len(ups), func(i int) string { return ups[i].Item }) {
		s := dnode.ShardOf(ups[i].Item, len(src.shards))
		perShard[s] = append(perShard[s], upd{ups[i].Item, ups[i].Value})
	}
	for s, b := range perShard {
		if len(b) > 0 && !c.publish(src, src.shards[s], batch{ups: b}) {
			return false
		}
	}
	return true
}

// publish runs one source batch through a source shard's pass under the
// shard's publish mutex. Publishing is not a hop, so the batch carries no
// due stamp; with an obs tree it is stamped with the tick's birth time
// and maybe sampled for a trace (pass records no hop for it, since from
// is the source's own id).
func (c *Cluster) publish(src *node, sh *nodeShard, b batch) bool {
	sh.pub.Lock()
	defer sh.pub.Unlock()
	if c.stopped() {
		return false
	}
	if src.obs != nil {
		now := c.now()
		b.sent, b.born = now, now
		b.tid = c.opts.Obs.TracerOrNil().Sample(b.updates()[0].item, repository.SourceID, int64(now))
	}
	return c.pass(src, sh, []batch{b})
}

// Value returns a node's current copy of item.
func (c *Cluster) Value(id repository.ID, item string) (float64, bool) {
	n, ok := c.nodes[id]
	if !ok {
		return 0, false
	}
	sh := n.shardOf(item)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.core.Value(item)
}

// Seed initializes every node's copy of item (and the edge filter state)
// to value, as if all repositories joined fully synchronized.
func (c *Cluster) Seed(item string, value float64) {
	for _, n := range c.nodes {
		sh := n.shardOf(item)
		sh.mu.Lock()
		sh.core.Seed(item, value)
		sh.mu.Unlock()
		if n.sessCore != nil {
			n.mu.Lock()
			n.sessCore.Seed(item, value)
			n.mu.Unlock()
		}
	}
}

// runShard is a relay (node, shard) worker's body: wake on a batch, wait
// out its due stamp, take every batch queued behind it that is due by
// then (a drain), and run the drain as one pass, then return the received
// batches' pooled slices. The first queued batch not yet due is carried
// over to head the next drain, so no batch is applied early and none
// waits for a later one. A crashed node keeps draining its inboxes — a
// dead process's peers are not blocked by it — but drops everything on
// the floor.
func (c *Cluster) runShard(n *node, sh *nodeShard) {
	var timer *time.Timer // only batches stamped under a CommDelay wait
	if c.opts.CommDelay > 0 {
		timer = time.NewTimer(c.opts.CommDelay)
		defer timer.Stop()
	}
	var in []batch // the drain, reused across drains
	var head batch // the drain's first batch, carried over when it was not yet due
	carried := false
	for {
		if !carried {
			var ok bool
			if head, ok = c.recv(sh.in); !ok {
				return
			}
		}
		if head.due != 0 && !c.await(head.due, timer) {
			return
		}
		in, carried = append(in[:0], head), false
		var now int64 // due stamps are 0 without a CommDelay
		if timer != nil {
			now = int64(time.Since(c.epoch))
		}
		// Only this worker receives, so the queued batches are there.
		for k := len(sh.in); k > 0; k-- {
			b := <-sh.in
			if b.due > now {
				head, carried = b, true
				break
			}
			in = append(in, b)
		}
		if !c.pass(n, sh, in) {
			return
		}
		for i := range in {
			in[i].release()
		}
	}
}

// pass runs a drain — a relay's received batches in arrival order, or one
// published batch at the source — through the shard's core and sends the
// resulting batches. The core decides — dependents through the per-edge
// filters, sessions through the per-client ones — while the wiring is
// stable under the locks: one topoMu read hold and one shard mutex hold
// for the whole drain, and one write-ahead-log commit once all of it is
// applied (the ordering rule of node.Durable). The (blocking) sends to
// dependents happen after the locks drop. It reports false if the
// cluster stopped during a send.
func (c *Cluster) pass(n *node, sh *nodeShard, in []batch) bool {
	if n.dead.Load() {
		return true
	}
	src := n.repo.IsSource()
	if c.opts.FailWindow > 0 && !src {
		n.mu.Lock()
		now := c.clock()
		for i := range in {
			n.lastHeard[in[i].from] = now
		}
		n.mu.Unlock()
	}
	c.topoMu.RLock()
	if n.obs != nil {
		c.observe(n, in)
	}
	sh.mu.Lock()
	sh.tr.begin()
	for i := range in {
		b := &in[i]
		if b.heartbeat {
			continue
		}
		sh.tr.segment(b)
		for _, u := range b.updates() {
			sh.core.Apply(u.item, u.value, &sh.tr)
		}
	}
	if sh.dur != nil {
		for i := range in {
			for _, u := range in[i].updates() {
				sh.dur.Append(u.item, u.value)
			}
		}
		sh.dur.Commit()
	}
	sends := sh.tr.sends
	sh.mu.Unlock()
	if n.sessCore != nil {
		// Sharded nodes fan the drain to client sessions through the
		// dedicated serve-only core.
		n.mu.Lock()
		for i := range in {
			for _, u := range in[i].updates() {
				n.sessCore.Apply(u.item, u.value, &n.sessTr)
			}
		}
		n.mu.Unlock()
	}
	c.topoMu.RUnlock()

	if !src && c.opts.OnDeliver != nil {
		for i := range in {
			for _, u := range in[i].updates() {
				c.opts.OnDeliver(n.repo.ID, u.item, u.value)
			}
		}
	}

	for i := range sends {
		out := sends[i].b
		if c.opts.CompDelay > 0 {
			// Serial per-copy processing cost, charged per update in the
			// batch.
			time.Sleep(time.Duration(len(out.updates())) * c.opts.CompDelay)
		}
		out.from = n.repo.ID
		if n.obs != nil {
			// Stamp the flush time (the hop downstream measures); born and
			// tid came from the segment, so a sampled trace accumulates the
			// whole fan-out tree.
			out.sent = c.now()
		}
		out.due = c.hopDue()
		if !c.send(sends[i].ch, out) {
			return false
		}
	}
	return true
}

// observe records the receipt of a drain's update batches: a batch count
// each and, for a stamped batch from an upstream peer, the hop (sender's
// flush to this receipt, the Eq. 2 edge-delay input), how far its tick
// already is from its source birth, and its trace stamp.
func (c *Cluster) observe(n *node, in []batch) {
	now := c.now()
	for i := range in {
		b := &in[i]
		if b.heartbeat {
			continue
		}
		n.obs.Batch(len(b.updates()))
		if b.sent != 0 && b.from != n.repo.ID {
			hop := int64(now - b.sent)
			n.obs.ObserveHop(hop)
			n.obs.ObserveEdgeDelay(b.from, hop)
			n.obs.ObserveSourceLatency(int64(now - b.born))
			c.opts.Obs.TracerOrNil().Hop(b.tid, n.repo.ID, int64(now))
		}
	}
}

// Crash takes a repository down: it stops handling, forwarding and
// heartbeating until the cluster is rebuilt (there is no live rejoin).
// Crashing the source is rejected — the paper's source is the one node
// the overlay cannot survive.
func (c *Cluster) Crash(id repository.ID) bool {
	n, ok := c.nodes[id]
	if !ok || n.repo.IsSource() {
		return false
	}
	n.dead.Store(true)
	return true
}

// Failovers reports how many parent-death repairs the cluster performed.
func (c *Cluster) Failovers() int {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	return c.failovers
}

// heartbeatLoop sends keep-alives to the node's current children.
func (c *Cluster) heartbeatLoop(n *node) {
	ticker := time.NewTicker(c.opts.Heartbeat)
	defer ticker.Stop()
	var chans []chan batch
	for {
		select {
		case <-c.done:
			return
		case <-ticker.C:
		}
		if n.dead.Load() {
			continue
		}
		c.topoMu.RLock()
		// Keep-alives ride shard 0: parent liveness is node-level state,
		// so one shard's inbox suffices.
		sh0 := n.shards[0]
		chans = chans[:0]
		for _, dep := range c.overlay.ChildrenOf(n.repo.ID) {
			sh0.mu.Lock()
			ch := sh0.out[dep]
			sh0.mu.Unlock()
			if ch != nil {
				chans = append(chans, ch)
			}
		}
		// A live repository's keep-alive also reassures its sessions:
		// refresh their service clocks so the session watchdog does not
		// abandon a quiet-but-alive node.
		smu, score := n.sessionCore()
		smu.Lock()
		score.TouchSessions(c.now())
		smu.Unlock()
		c.topoMu.RUnlock()
		hb := batch{from: n.repo.ID, heartbeat: true, due: c.hopDue()}
		for _, ch := range chans {
			if !c.send(ch, hb) {
				return
			}
		}
	}
}

// watchdogLoop detects dead parents by silence and re-homes their feeds.
func (c *Cluster) watchdogLoop(n *node) {
	ticker := time.NewTicker(c.tickerPeriod())
	defer ticker.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-ticker.C:
		}
		if n.dead.Load() {
			continue
		}
		n.mu.Lock()
		var stale []repository.ID
		now := c.clock()
		for pid, heard := range n.lastHeard {
			if now.Sub(heard) >= c.opts.FailWindow {
				stale = append(stale, pid)
			}
		}
		n.mu.Unlock()
		sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
		for _, pid := range stale {
			c.failover(n, pid)
		}
	}
}

// failover re-homes every item n received from the silent parent onto the
// first live backup that already serves it and has a free connection
// slot. Items with no eligible backup stay orphaned; the watchdog retries
// them on its next pass (the silent parent stays in lastHeard until every
// item has moved). The backup's core seeds the revived edge with the
// synced value, so the first post-resync update filters correctly.
func (c *Cluster) failover(n *node, deadPID repository.ID) {
	var syncs []depSend

	c.topoMu.Lock()
	var items []string
	for x, pid := range n.repo.Parents {
		if pid == deadPID {
			items = append(items, x)
		}
	}
	if len(items) == 0 {
		// Nothing left to move: stop watching the silent parent.
		n.mu.Lock()
		delete(n.lastHeard, deadPID)
		n.mu.Unlock()
		c.topoMu.Unlock()
		return
	}
	sort.Strings(items)
	// Drop the dead edge wholesale (the process is gone); items that find
	// no backup below keep their stale Parents entry, which is exactly the
	// marker the next watchdog pass retries on.
	c.overlay.Node(deadPID).DropDependent(n.repo.ID)
	moved := false
	for _, x := range items {
		cDep, ok := n.repo.ServingTolerance(x)
		if !ok {
			continue
		}
		for _, b := range c.opts.Backups[n.repo.ID] {
			if b == deadPID {
				continue
			}
			bn := c.nodes[b]
			if bn == nil {
				continue
			}
			bRepo := c.overlay.Node(b)
			if bn.dead.Load() || !bRepo.CanServe(x, cDep) || !bRepo.HasCapacityFor(n.repo.ID) {
				continue
			}
			// Adopt: rewire the overlay edge and point every backup shard
			// at the dependent's inbox for that shard (updates ride the
			// item's shard, keep-alives ride shard 0), then queue a sync
			// push of the backup's current copy so the dependent
			// converges immediately.
			bRepo.AddDependent(x, n.repo.ID)
			n.repo.Parents[x] = b
			moved = true
			for si, bsh := range bn.shards {
				bsh.mu.Lock()
				bsh.out[n.repo.ID] = n.shards[si].in
				bsh.mu.Unlock()
			}
			bsh := bn.shardOf(x)
			bsh.mu.Lock()
			if v, hasV := bsh.core.Value(x); hasV {
				bsh.core.ResetEdge(n.repo.ID, x, v)
				syncs = append(syncs, depSend{bsh.out[n.repo.ID], batch{from: b, one: [1]upd{{x, v}}}})
			}
			bsh.mu.Unlock()
			n.mu.Lock()
			n.lastHeard[b] = c.clock()
			n.mu.Unlock()
			break
		}
	}
	if moved {
		c.failovers++
	}
	c.topoMu.Unlock()

	for _, s := range syncs {
		s.b.due = c.hopDue()
		if !c.send(s.ch, s.b) {
			return
		}
	}
}

// Decisions reports a node's per-item forward/suppress decision totals
// about its dependents — the cross-backend parity instrumentation —
// merged across its shards (whose item partitions are disjoint).
func (c *Cluster) Decisions(id repository.ID) map[string]dnode.Decisions {
	n, ok := c.nodes[id]
	if !ok {
		return nil
	}
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	out := make(map[string]dnode.Decisions)
	for _, sh := range n.shards {
		sh.mu.Lock()
		for item, d := range sh.core.EdgeDecisions() {
			cur := out[item]
			cur.Forwarded += d.Forwarded
			cur.Suppressed += d.Suppressed
			out[item] = cur
		}
		sh.mu.Unlock()
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Snapshot returns every repository's copy of item, for observation.
func (c *Cluster) Snapshot(item string) map[repository.ID]float64 {
	out := make(map[repository.ID]float64)
	for id, n := range c.nodes {
		sh := n.shardOf(item)
		sh.mu.Lock()
		if v, ok := sh.core.Value(item); ok {
			out[id] = v
		}
		sh.mu.Unlock()
	}
	return out
}

// ObsSnapshot folds and returns the attached observability tree's state
// on the cluster's own time base (zero-valued when Options.Obs is nil).
// The metrics endpoint of a live deployment serves this.
func (c *Cluster) ObsSnapshot() obs.TreeSnapshot {
	return c.opts.Obs.Snapshot(int64(c.now()))
}

// String describes the cluster.
func (c *Cluster) String() string {
	return fmt.Sprintf("live cluster: %d nodes, %d shards, comm %v, comp %v",
		len(c.nodes), c.nshards, c.opts.CommDelay, c.opts.CompDelay)
}
