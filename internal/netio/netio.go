// Package netio serves the paper's distributed dissemination algorithm
// over TCP: every overlay node is a network server that accepts push
// connections from its dependents and forwards filtered updates to them.
// It is the deployment-shaped counterpart of the in-process runtimes —
// nodes could run in separate processes or on separate hosts; the tests
// and the livecluster example run them on localhost.
//
// Wire format: length-prefixed fixed-layout binary frames
// (internal/wire) on long-lived TCP connections — hand-rolled
// little-endian encoding, no per-frame reflection. A dependent dials its
// parent and sends a hello frame identifying itself; the parent then
// pushes update frames for the items it serves that dependent, filtered
// by Eqs. 3 and 7. A corrupt or truncated stream fails the strict
// decoder and tears that connection down, which feeds the same
// connection-error machinery as a crash.
//
// The hop: the node's mutex covers deciding, logging and queueing, never
// the socket. Every socket decoder reads through a 64 KiB buffer, and a
// relay applies all the frames that buffer already holds whole under one
// hold of the mutex — a drain — with one write-ahead-log commit for it.
// Each received frame still yields its own frames downstream. Every
// outbound connection (a dependent's push connection, an admitted client
// session) has a writer goroutine that sends all the frames queued since
// its last write with one write call. A full socket holds its queue at a
// fixed bound, which then blocks the applying goroutine as a blocking
// write used to. Nothing is dropped, merged or reordered.
//
// The filtering, last-pushed-value tracking, session admission and
// resync rules live in the transport-agnostic core (internal/node),
// built here from the node's self-contained config: this package owns
// only the sockets, the frames, and the connection-error failover.
package netio

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"d3t/internal/coherency"
	dnode "d3t/internal/node"
	"d3t/internal/obs"
	"d3t/internal/query"
	"d3t/internal/repository"
	"d3t/internal/sim"
	"d3t/internal/wal"
	"d3t/internal/wire"
)

// Update is one (item, value) pair of a multi-update batch frame.
type Update = wire.Update

// NodeConfig describes one dissemination node. It is self-contained: a
// node needs no global overlay view, only its own serving set and its
// dependents' tolerances — exactly the state a deployed repository would
// hold.
type NodeConfig struct {
	// ID is the node's overlay id (SourceID for the source).
	ID repository.ID
	// Serving maps item -> the tolerance this node maintains. The source
	// may leave it nil (it holds exact values).
	Serving map[string]coherency.Requirement
	// Children maps dependent id -> the items (and tolerances) this node
	// pushes to it.
	Children map[repository.ID]map[string]coherency.Requirement
	// Listen is the TCP address to listen on ("127.0.0.1:0" for tests).
	Listen string
	// Parents are the parent nodes' addresses — one per distinct parent
	// serving this node items (LeLA may split a repository's needs across
	// several parents). Empty for the source.
	Parents []string
	// Backups are ranked backup-parent addresses. When a parent
	// connection dies the node dials them in order (skipping unreachable
	// ones) and resumes with a resync hello; the backup must already list
	// this node in its Children (capacity is reserved up front, exactly
	// like the precomputed backup lists of the simulation runner).
	Backups []string
	// Initial seeds the node's item values (and per-child filter state).
	Initial map[string]float64
	// SessionCap caps the client sessions this node serves (0 =
	// unlimited); an over-cap subscribe is answered with a redirect to
	// SessionPeers.
	SessionCap int
	// SessionPeers are alternative node addresses offered to redirected
	// clients — typically the node's overlay neighbors.
	SessionPeers []string
	// QueryInterval is the query clock's tick length (wall time, in
	// sim.Time microseconds) for repository-side query evaluation; it
	// defaults to sim.Second. Eval/recompute counts — the cross-backend
	// parity observable — are independent of it; only windowed result
	// values depend on the tick width.
	QueryInterval sim.Time

	// Obs, when set, collects this node's counters and latency
	// histograms. Hop, source-latency and edge-delay samples come only
	// from traced updates (see Tracer): untraced frames carry no
	// timestamps, by the wire format's compatibility rule.
	Obs *obs.Node
	// Tracer arms update tracing. The source samples every Nth publish,
	// stamps the frame (wire trace flag), and every relay appends its
	// receipt stamp and records the trace seen so far. A single-process
	// cluster shares one tracer; separate processes each collect the
	// prefixes that pass through them.
	Tracer *obs.Tracer
	// MetricsAddr, when non-empty, serves the node's observability
	// snapshot over HTTP (/metrics, /debug/vars, /debug/pprof/).
	MetricsAddr string

	// Durability, when set, backs the node's core with a write-ahead log
	// and periodic snapshots under Durability.Dir/repoNNN (so one base
	// directory serves a whole localhost cluster), group-committed per
	// publish at the source and per drain at a relay (see drain). Start
	// recovers whatever state the directory already holds — recovered
	// values and edge filter state override Initial, so a restarted node
	// resumes exactly where the dead process stopped instead of rejoining
	// cold.
	Durability *wal.Options
}

// Node is a running dissemination server.
type Node struct {
	cfg     NodeConfig
	ln      net.Listener
	start   time.Time
	metrics *obs.MetricsServer

	mu sync.Mutex
	// core owns values, per-child filter state and client sessions;
	// guarded by mu.
	core *dnode.Core
	tr   transport
	// children maps each dialed-in dependent to its push connection's
	// writer.
	children map[repository.ID]*peer
	// querySubs maps admitted query-session names to their server-side
	// evaluation state (sessions whose subscribe frame carried a spec).
	querySubs map[string]*querySub

	wg sync.WaitGroup
	// Delivered counts updates received from the parent.
	delivered int
	// failovers counts successful re-connections to a backup parent.
	failovers int

	// dur is the node's write-ahead log glue (nil without durability),
	// guarded by mu.
	dur *dnode.Durable

	// connMu guards conns and closed apart from mu, so Close can close
	// every connection without waiting for mu: that unblocks a writer
	// stuck on a full socket, and with it an apply waiting for room in
	// that writer's queue while holding mu.
	connMu sync.Mutex
	// conns holds every open connection, accepted and dialed.
	conns  map[net.Conn]bool
	closed bool
}

// transport adapts the core's decisions to wire frames. Every call
// happens under Node.mu and nothing here touches a socket: an apply pass
// collects its copies, and flush appends them to the peers' queues, after
// the pass's WAL commit.
//
// A pass is a run of segments, one per applied frame (a relay's drain
// applies several). Per segment and dependent the pass yields one frame —
// the plain update frame for a single copy, the multi-update batch frame
// for several — so the frames a dependent receives do not depend on how
// many segments one pass held. Client frames follow in decision order.
type transport struct {
	n *Node
	// pass numbers segments; a peer stamped with the current one already
	// has its group.
	pass uint64
	// pend collects the unflushed dependent copies in decision order, each
	// tagged with its group's index in groups; groups lists each
	// segment's dependents in first-decision order, segment after segment.
	pend   []depSend
	groups []depGroup
	// ups is flush's scratch: pend regrouped by group.
	ups []Update
	// cpend collects the unflushed client frames.
	cpend []clientSend
	// err records the first child-push failure of an apply pass.
	err error
	// tid/hops are the current segment's trace context: the sampled id
	// and the hop stamps accumulated so far (ending with this node's own
	// receipt). Zero for an untraced segment.
	tid  uint64
	hops []obs.Hop
}

// depSend is one collected dependent copy awaiting the pass's flush.
type depSend struct {
	group int
	up    Update
}

// depGroup is one dependent's share of a segment: n copies, placed at
// ups[start:start+n] by flush, and the segment's trace context. Only a
// single-copy group's update frame carries the trace; a batch frame drops
// it.
type depGroup struct {
	dep      repository.ID
	p        *peer
	n, start int
	tid      uint64
	hops     []obs.Hop
}

// clientSend is one collected client frame.
type clientSend struct {
	p      *peer
	item   string
	v      float64
	resync bool
}

func (t *transport) Now() sim.Time {
	return sim.Time(time.Since(t.n.start) / time.Microsecond)
}

func (t *transport) SendToDependent(dep repository.ID, item string, v float64, resync bool) bool {
	p := t.n.children[dep]
	if p == nil {
		// Child not dialed in yet: report no path so the core leaves the
		// filter state untouched and the child catches up on the next
		// qualifying update after it joins.
		return false
	}
	if p.pass != t.pass {
		p.pass, p.group = t.pass, len(t.groups)
		t.groups = append(t.groups, depGroup{dep: dep, p: p, tid: t.tid, hops: t.hops})
	}
	t.groups[p.group].n++
	t.pend = append(t.pend, depSend{p.group, Update{Item: item, Value: v}})
	return true
}

// begin opens an apply pass with an untraced first segment.
func (t *transport) begin() {
	t.err = nil
	t.segment(0, nil)
}

// segment starts the pass's next segment, with trace context tid/hops:
// copies decided from here on group into frames of their own.
func (t *transport) segment(tid uint64, hops []obs.Hop) {
	t.pass++
	t.tid, t.hops = tid, hops
}

// flush queues the frames collected since the last flush: per group (in
// segment order, and in first-decision order within one) a single update
// frame or one batch frame, then the client frames. A counting sort
// regroups the copies, so a flush costs O(copies) and allocates nothing
// once the scratch has grown. A segment must start before the next copy
// is decided.
func (t *transport) flush() {
	off := 0
	for i := range t.groups {
		g := &t.groups[i]
		g.start, off, g.n = off, off+g.n, 0
	}
	t.ups = slices.Grow(t.ups[:0], off)[:off]
	for _, s := range t.pend {
		g := &t.groups[s.group]
		t.ups[g.start+g.n] = s.up
		g.n++
	}
	for i := range t.groups {
		g := &t.groups[i]
		ups := t.ups[g.start : g.start+g.n]
		var err error
		if len(ups) == 1 {
			err = g.p.send(&wire.Frame{Kind: wire.KindUpdate, Item: ups[0].Item, Value: ups[0].Value,
				TraceID: g.tid, Hops: g.hops})
		} else {
			err = g.p.send(&wire.Frame{Kind: wire.KindBatch, Ups: ups})
		}
		if err != nil && t.err == nil {
			t.err = fmt.Errorf("netio: %v pushing to %v: %w", t.n.cfg.ID, g.dep, err)
		}
	}
	for _, c := range t.cpend {
		c.p.send(&wire.Frame{Kind: wire.KindUpdate, Item: c.item, Value: c.v, Resync: c.resync})
	}
	t.pend, t.groups, t.cpend = t.pend[:0], t.groups[:0], t.cpend[:0]
}

func (t *transport) SendToClient(s *dnode.Session, item string, v float64, resync bool) {
	switch tag := s.Tag().(type) {
	case *peer:
		t.cpend = append(t.cpend, clientSend{tag, item, v, resync})
	case *querySub:
		t.n.queryDeliver(tag, t.Now(), item, v, resync)
	}
}

// querySub is the server half of one repository-evaluated query session
// (a subscribe frame carrying a query spec): the session's writer for
// result frames plus the incremental evaluator fed by the deliveries the
// per-client filter forwards. All access happens under Node.mu — the
// session push path already runs there.
type querySub struct {
	q    query.Query
	eval *query.Eval
	p    *peer
}

// queryDeliver runs one filtered input delivery through a query session:
// the evaluator recomputes, and a changed result that passes the
// predicate is queued as an update frame under the query's result
// pseudo-item — only result changes travel the last hop, which is the
// point of repository-side placement. Caller holds Node.mu, inside an
// apply pass.
func (n *Node) queryDeliver(qs *querySub, now sim.Time, item string, v float64, resync bool) {
	interval := n.cfg.QueryInterval
	if interval <= 0 {
		interval = sim.Second
	}
	res, ok, changed := qs.eval.Observe(item, v, int64(now/interval))
	recomputed := 0
	if ok {
		recomputed = 1
	}
	n.cfg.Obs.QueryPass(1, recomputed)
	if !ok || !changed {
		return
	}
	if qs.q.Pred != nil && !qs.q.Pred.Holds(res) {
		return
	}
	n.tr.cpend = append(n.tr.cpend, clientSend{qs.p, qs.q.ResultItem(), res, resync})
}

// QueryCounts reports the eval/recompute counters of a repository-side
// query session by name (zeros if no such session is admitted). Counts
// depend only on the delivery sequence the per-client filter produced,
// so they must agree with every other backend serving the same stream —
// the cross-backend parity observable of the query layer.
func (n *Node) QueryCounts(name string) (evals, recomputes uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if qs := n.querySubs[name]; qs != nil {
		return qs.eval.Evals(), qs.eval.Recomputes()
	}
	return 0, 0
}

// buildCore assembles the transport-agnostic core from the self-contained
// config: a stub repository for the node itself and one per dependent
// (carrying its tolerances), wired in sorted order so the fan-out plan —
// and hence the wire traffic — is deterministic.
func buildCore(cfg NodeConfig) *dnode.Core {
	self := repository.New(cfg.ID, len(cfg.Children))
	for x, c := range cfg.Serving {
		self.Serving[x] = c
	}
	peers := make(map[repository.ID]*repository.Repository, len(cfg.Children))
	children := make([]repository.ID, 0, len(cfg.Children))
	for child := range cfg.Children {
		children = append(children, child)
	}
	sort.Slice(children, func(i, j int) bool { return children[i] < children[j] })
	for _, child := range children {
		stub := repository.New(child, 0)
		items := make([]string, 0, len(cfg.Children[child]))
		for x, tol := range cfg.Children[child] {
			stub.Serving[x] = tol
			items = append(items, x)
		}
		sort.Strings(items)
		peers[child] = stub
		for _, x := range items {
			self.AddDependent(x, child)
		}
	}
	core := dnode.New(self, func(id repository.ID) *repository.Repository { return peers[id] },
		dnode.Options{Source: len(cfg.Parents) == 0, SessionCap: cfg.SessionCap})
	for item, v := range cfg.Initial {
		core.SetValue(item, v)
	}
	for _, child := range children {
		for item := range cfg.Children[child] {
			if v, ok := cfg.Initial[item]; ok {
				core.ResetEdge(child, item, v)
			}
		}
	}
	return core
}

// Start launches the node: listen for dependents, connect to the parent
// (if any), and begin forwarding.
func Start(cfg NodeConfig) (*Node, error) {
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("netio: %v listen: %w", cfg.ID, err)
	}
	n := &Node{
		cfg:       cfg,
		ln:        ln,
		start:     time.Now(),
		core:      buildCore(cfg),
		children:  make(map[repository.ID]*peer),
		querySubs: make(map[string]*querySub),
		conns:     make(map[net.Conn]bool),
	}
	n.tr.n = n
	n.core.SetObs(cfg.Obs)
	if cfg.Durability != nil {
		// Recover into the freshly built core before the listener accepts.
		// netio's share of the durability glue (node.Durable) is the
		// directory naming — Dir/repoNNN, one base directory per cluster —
		// and the lock: every later call on n.dur happens under Node.mu.
		dir := filepath.Join(cfg.Durability.Dir, fmt.Sprintf("repo%03d", cfg.ID))
		if n.dur, _, err = dnode.OpenDurable(dir, *cfg.Durability, n.core, nil); err != nil {
			ln.Close()
			return nil, fmt.Errorf("netio: %v durability: %w", cfg.ID, err)
		}
	}
	if cfg.MetricsAddr != "" {
		ms, err := obs.ServeMetrics(cfg.MetricsAddr, func() any { return n.ObsSnapshot() })
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("netio: %v metrics: %w", cfg.ID, err)
		}
		n.metrics = ms
	}

	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.acceptLoop()
	}()

	for _, parent := range cfg.Parents {
		conn, err := net.Dial("tcp", parent)
		if err != nil {
			n.Close()
			return nil, fmt.Errorf("netio: %v dialing parent %s: %w", cfg.ID, parent, err)
		}
		n.track(conn) // nobody can have closed the node yet
		if err := wire.NewEncoder(conn).Encode(&wire.Frame{Kind: wire.KindHello, From: cfg.ID}); err != nil {
			n.Close()
			return nil, fmt.Errorf("netio: %v hello: %w", cfg.ID, err)
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.parentLoop(conn)
		}()
	}
	return n, nil
}

// Addr returns the node's listening address (for children to dial).
func (n *Node) Addr() string { return n.ln.Addr().String() }

// ID returns the node's overlay id.
func (n *Node) ID() repository.ID { return n.cfg.ID }

// Close shuts the node down and waits for its goroutines. Frames still
// queued for a peer are dropped with its connection, as in a crash.
func (n *Node) Close() error {
	n.connMu.Lock()
	n.closed = true
	for conn := range n.conns {
		// Unblocks parked readers, and writers stuck on a full socket
		// (so an apply waiting for room in their queues returns too).
		conn.Close()
	}
	n.connMu.Unlock()
	err := n.ln.Close()
	n.metrics.Close()
	n.wg.Wait()
	n.mu.Lock()
	n.dur.Close()
	n.mu.Unlock()
	return err
}

// track registers an open connection for Close to shut. It reports false
// once the node is closed; the caller then closes conn itself.
func (n *Node) track(conn net.Conn) bool {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	if n.closed {
		return false
	}
	n.conns[conn] = true
	return true
}

// untrack closes conn and forgets it.
func (n *Node) untrack(conn net.Conn) {
	conn.Close()
	n.connMu.Lock()
	delete(n.conns, conn)
	n.connMu.Unlock()
}

// startPeer starts the writer goroutine of an outbound connection.
func (n *Node) startPeer(conn net.Conn) *peer {
	p := newPeer(conn)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		p.run()
	}()
	return p
}

// DurabilityErr reports the first write-ahead-log failure the node hit,
// or nil. After a non-nil error, commits may be missing from what a
// restart over the same directory replays.
func (n *Node) DurabilityErr() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dur.Err()
}

// Publish injects a new value at the source node and pushes it to every
// dependent whose tolerance it violates. Calling it on a non-source node
// is an error.
func (n *Node) Publish(item string, value float64) error {
	if len(n.cfg.Parents) > 0 {
		return errors.New("netio: Publish on a non-source node")
	}
	tid, hops := n.sampleTrace(item)
	f := wire.Frame{Kind: wire.KindUpdate, Item: item, Value: value}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tr.begin()
	n.applyFrame(&f, tid, hops)
	return n.finish()
}

// sampleTrace asks the tracer whether this publish rides a trace; a
// sampled one opens with the source's own wall-clock stamp. Batched
// publishes never trace (batch frames carry no trailer).
func (n *Node) sampleTrace(item string) (uint64, []obs.Hop) {
	tr := n.cfg.Tracer
	if tr == nil {
		return 0, nil
	}
	at := time.Now().UnixMicro()
	tid := tr.Sample(item, n.cfg.ID, at)
	if tid == 0 {
		return 0, nil
	}
	return tid, []obs.Hop{{Node: n.cfg.ID, At: at}}
}

// PublishBatch injects one tick's worth of source updates as a batch:
// same-item updates coalesce to the newest value, the whole batch runs
// through the filter pipeline in one pass, and each dependent receives
// its share in a single multi-update frame. Calling it on a non-source
// node is an error.
func (n *Node) PublishBatch(ups []Update) error {
	if len(n.cfg.Parents) > 0 {
		return errors.New("netio: PublishBatch on a non-source node")
	}
	f := wire.Frame{Kind: wire.KindBatch, Ups: ups}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tr.begin()
	n.applyFrame(&f, 0, nil)
	return n.finish()
}

// Value returns the node's current copy of item.
func (n *Node) Value(item string) (float64, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.core.Value(item)
}

// Delivered returns how many updates this node has received from its
// parent.
func (n *Node) Delivered() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.delivered
}

// Failovers returns how many times the node re-homed onto a backup parent
// after losing a parent connection.
func (n *Node) Failovers() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.failovers
}

// ConnectedChildren reports how many dependents currently hold a live push
// connection.
func (n *Node) ConnectedChildren() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.children)
}

// ExpectedChildren reports how many dependents the node is configured to
// serve.
func (n *Node) ExpectedChildren() int { return len(n.cfg.Children) }

// Decisions reports the node's per-item forward/suppress decision totals
// about its dependents — the cross-backend parity instrumentation.
func (n *Node) Decisions() map[string]dnode.Decisions {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.core.EdgeDecisions()
}

// acceptLoop registers dependents as they dial in.
func (n *Node) acceptLoop() {
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.handleChild(conn)
		}()
	}
}

// handleChild performs the hello handshake and parks the connection as a
// push target. The child never sends further frames; the read blocks
// until either side closes, cleaning up the registration.
func (n *Node) handleChild(conn net.Conn) {
	if !n.track(conn) {
		conn.Close()
		return
	}
	defer n.untrack(conn)
	dec := wire.NewDecoder(bufio.NewReaderSize(conn, readBuf))
	var hello wire.Frame
	if err := dec.Decode(&hello); err != nil {
		return
	}
	if hello.Kind == wire.KindSubscribe {
		n.handleClient(conn, dec, hello)
		return
	}
	if hello.Kind != wire.KindHello {
		return
	}
	if _, ok := n.cfg.Children[hello.From]; !ok {
		return // unknown dependent
	}
	p := n.startPeer(conn)
	n.mu.Lock()
	n.children[hello.From] = p
	if hello.Resync {
		// A dependent that failed over to us catches up immediately: the
		// core pushes the current copy of every item we serve it,
		// unconditionally, and seeds the edge filter state to match. The
		// flush ships the whole catch-up as one batch frame.
		n.tr.begin()
		n.core.ResyncDependent(hello.From, &n.tr)
		n.tr.flush()
	}
	n.mu.Unlock()

	// The child never sends further frames; the read blocks until either
	// side closes — the writer closes on a write error too. Any byte it
	// does send must be a well-formed frame — a corrupt stream fails the
	// strict decoder and drops the registration.
	var discard wire.Frame
	for dec.Decode(&discard) == nil {
	}
	n.mu.Lock()
	if n.children[hello.From] == p { // not replaced by a reconnect
		delete(n.children, hello.From)
	}
	n.mu.Unlock()
	p.stop()
}

// handleClient admits (or redirects) one client session: the TCP
// transport of the core's admission policy. An accepted session gets an
// accept frame, a resync push of the current copies of its watch list,
// and from then on only updates the core's per-client filter forwards —
// Eqs. 3 and 7 applied at the leaf with this node's serving tolerance.
func (n *Node) handleClient(conn net.Conn, dec *wire.Decoder, sub wire.Frame) {
	enc := wire.NewEncoder(conn)
	if sub.Name == "" || len(sub.Wants) == 0 {
		enc.Encode(&wire.Frame{Kind: wire.KindRedirect})
		return
	}
	// A subscribe frame carrying a query spec asks for repository-side
	// evaluation: parse it here so a malformed spec is turned away before
	// any session state exists. The frame's wants are the query's inputs
	// at their allocated tolerances, so the admission check below covers
	// the query's coherency needs too.
	var qs *querySub
	if sub.Query != "" {
		q, err := query.Parse(sub.Query)
		if err != nil {
			enc.Encode(&wire.Frame{Kind: wire.KindRedirect})
			return
		}
		q.Name = sub.Name
		qs = &querySub{q: q, eval: query.NewEval(q)}
	}
	n.mu.Lock()
	if reason := n.core.CanAdmit(sub.Name, sub.Wants); reason != dnode.RejectNone {
		n.core.NoteRedirect()
		peers := append([]string(nil), n.cfg.SessionPeers...)
		n.mu.Unlock()
		enc.Encode(&wire.Frame{Kind: wire.KindRedirect, Addrs: peers})
		return
	}
	// The accept frame goes out on this goroutine, before the session
	// exists, so the handshake waits on no writer.
	if enc.Encode(&wire.Frame{Kind: wire.KindAccept}) != nil {
		n.mu.Unlock()
		return
	}
	p := n.startPeer(conn)
	// Admission resyncs the session to our current copies immediately. A
	// query session's resync feeds the evaluator (counted, like every
	// delivery) instead of shipping raw inputs.
	ns := dnode.NewSession(sub.Name, sub.Wants)
	if qs != nil {
		qs.p = p
		n.querySubs[sub.Name] = qs
		ns.SetTag(qs)
	} else {
		ns.SetTag(p)
	}
	n.tr.begin()
	n.core.ForceAdmit(ns, &n.tr)
	n.tr.flush()
	n.mu.Unlock()

	// Park until either side closes (a client sending garbage fails the
	// strict decoder the same way), then unregister the session.
	var discard wire.Frame
	for dec.Decode(&discard) == nil {
	}
	n.mu.Lock()
	delete(n.querySubs, sub.Name)
	n.core.DropSession(sub.Name)
	n.mu.Unlock()
	p.stop()
}

// Sessions reports how many client sessions the node currently serves.
func (n *Node) Sessions() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.core.SessionCount()
}

// RedirectedSessions returns how many subscribe attempts this node
// answered with a redirect.
func (n *Node) RedirectedSessions() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.core.Redirected()
}

// parentLoop applies pushes from the parent, a drain at a time. When the
// connection dies — the parent crashed or closed, or sent a frame that
// fails to decode — it fails over to the configured backups: real
// connection errors are the detection signal in the TCP runtime, the
// counterpart of the simulator's modeled silence window.
//
// A backup that accepts the dial but drops the connection before sending
// a frame (e.g. it does not actually list this node as a child) triggers
// exponential backoff, so a misconfigured backup list degrades to slow
// retries instead of a hot reconnect loop.
func (n *Node) parentLoop(conn net.Conn) {
	br := bufio.NewReaderSize(conn, readBuf)
	dec := wire.NewDecoder(br)
	backoff := 50 * time.Millisecond
	framed := false // a frame arrived on the current connection
	var f wire.Frame
	for {
		err := dec.Decode(&f)
		if err == nil {
			framed, backoff = true, 50*time.Millisecond
			err = n.drain(br, dec, &f)
		}
		if err != nil {
			n.untrack(conn)
			if !framed {
				time.Sleep(backoff)
				if backoff < 2*time.Second {
					backoff *= 2
				}
			}
			next, ok := n.failover()
			if !ok {
				return
			}
			br.Reset(next)
			conn, dec, framed = next, wire.NewDecoder(br), false
		}
	}
}

// drain applies f, and after it every frame br already holds whole,
// under one hold of Node.mu: one apply pass with a segment per frame, so
// each dependent still receives one frame per received frame, in order.
// It never reads the socket — wire.FrameBuffered vouches for each further
// frame before it is decoded — so the lock is never held across a read.
// With a log the whole drain is one group commit, and its frames are
// queued after it; without one each frame's copies are queued as soon as
// it is applied. A frame that fails to decode ends the drain, after the
// frames before it are committed and queued, and its error is returned.
func (n *Node) drain(br *bufio.Reader, dec *wire.Decoder, f *wire.Frame) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tr.begin()
	var err error
	for {
		if f.Kind == wire.KindUpdate || f.Kind == wire.KindBatch {
			if f.Kind == wire.KindUpdate {
				n.delivered++
			} else {
				n.delivered += len(f.Ups)
			}
			tid, hops := n.noteArrival(f)
			n.applyFrame(f, tid, hops)
			if n.dur == nil {
				n.tr.flush()
			}
		}
		if !wire.FrameBuffered(br) {
			break
		}
		if err = dec.Decode(f); err != nil {
			break
		}
	}
	n.finish()
	return err
}

// failover dials the backup parents in order and performs a resync hello
// on the first that answers. It returns false when the node is shutting
// down or no backup is reachable.
func (n *Node) failover() (net.Conn, bool) {
	n.connMu.Lock()
	closed := n.closed
	n.connMu.Unlock()
	if closed || len(n.cfg.Backups) == 0 {
		return nil, false
	}
	for _, addr := range n.cfg.Backups {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			continue // unreachable backup: try the next one
		}
		if err := wire.NewEncoder(conn).Encode(&wire.Frame{Kind: wire.KindHello, From: n.cfg.ID, Resync: true}); err != nil {
			conn.Close()
			continue
		}
		if !n.track(conn) {
			conn.Close()
			return nil, false
		}
		n.mu.Lock()
		n.failovers++
		n.mu.Unlock()
		return conn, true
	}
	return nil, false
}

// noteArrival records the receipt side of one traced parent push — the
// hop and source-to-here latencies and the edge-delay EWMA keyed by the
// stamping peer, all from the wall-clock stamps the frame carries — and
// extends the hop list with this node's own stamp, returning the trace
// context the forwarded copies ride on. Untraced frames record nothing
// here (their receipt still counts through the core).
func (n *Node) noteArrival(f *wire.Frame) (uint64, []obs.Hop) {
	if f.TraceID == 0 {
		return 0, nil
	}
	at := time.Now().UnixMicro()
	if len(f.Hops) > 0 {
		prev := f.Hops[len(f.Hops)-1]
		n.cfg.Obs.ObserveHop(at - prev.At)
		n.cfg.Obs.ObserveEdgeDelay(prev.Node, at-prev.At)
		n.cfg.Obs.ObserveSourceLatency(at - f.Hops[0].At)
	}
	hops := append(f.Hops, obs.Hop{Node: n.cfg.ID, At: at})
	n.cfg.Tracer.Record(obs.Trace{ID: f.TraceID, Item: f.Item, Hops: hops})
	return f.TraceID, hops
}

// ObsSnapshot folds and returns the node's observer state (zero-valued
// when NodeConfig.Obs is unset). The metrics endpoint serves this.
func (n *Node) ObsSnapshot() obs.NodeSnapshot {
	return n.cfg.Obs.Snapshot(time.Since(n.start).Microseconds())
}

// MetricsAddr returns the metrics listener's address, or "" when no
// metrics endpoint is configured.
func (n *Node) MetricsAddr() string {
	if n.metrics == nil {
		return ""
	}
	return n.metrics.Addr()
}

// applyFrame runs one update or batch frame through the core's filter
// pipeline — to dependents and client sessions both — as a segment of the
// open pass, with trace context tid/hops (zero when untraced), and
// appends each applied update to the log. A batch applies in one
// segment: same-item updates coalesce to the newest value (a value
// superseded within its own batch is never disseminated), and each
// dependent gets the survivors' copies as one frame. Caller holds
// Node.mu, between begin and finish.
func (n *Node) applyFrame(f *wire.Frame, tid uint64, hops []obs.Hop) {
	n.tr.segment(tid, hops)
	if f.Kind == wire.KindUpdate {
		n.core.Apply(f.Item, f.Value, &n.tr)
		n.dur.Append(f.Item, f.Value)
		return
	}
	n.cfg.Obs.Batch(len(f.Ups))
	for _, i := range dnode.CoalesceBatch(len(f.Ups), func(i int) string { return f.Ups[i].Item }) {
		n.core.Apply(f.Ups[i].Item, f.Ups[i].Value, &n.tr)
		n.dur.Append(f.Ups[i].Item, f.Ups[i].Value)
	}
}

// finish closes an apply pass: one group commit of every update appended
// since begin, then the pass's unflushed frames. The commit comes first,
// so a copy is logged before it can be sent. It reports the pass's first
// child-push failure.
func (n *Node) finish() error {
	n.dur.Commit()
	n.tr.flush()
	return n.tr.err
}
