// Package netio serves the paper's distributed dissemination algorithm
// over TCP: every overlay node is a network server that accepts push
// connections from its dependents and forwards filtered updates to them.
// It is the deployment-shaped counterpart of the in-process runtimes —
// nodes could run in separate processes or on separate hosts; the tests
// and the livecluster example run them on localhost.
//
// Wire format: length-prefixed fixed-layout binary frames
// (internal/wire) on long-lived TCP connections — hand-rolled
// little-endian encoding into pooled buffers, no per-frame reflection.
// A dependent dials its parent and sends a hello frame identifying
// itself; the parent then pushes update frames for the items it serves
// that dependent, filtered by Eqs. 3 and 7. A corrupt or truncated
// stream fails the strict decoder and tears that connection down, which
// feeds the same connection-error machinery as a crash.
//
// The filtering, last-pushed-value tracking, session admission and
// resync rules live in the transport-agnostic core (internal/node),
// built here from the node's self-contained config: this package owns
// only the sockets, the frames, and the connection-error failover.
package netio

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
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
	// received frame. Start recovers whatever state the directory already
	// holds — recovered values and edge filter state override Initial, so
	// a restarted node resumes exactly where the dead process stopped
	// instead of rejoining cold.
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
	core     *dnode.Core
	tr       transport
	childEnc map[repository.ID]*wire.Encoder
	// clientEnc maps admitted session names to their push encoders —
	// the wire half of the core's session registry.
	clientEnc map[string]*wire.Encoder
	// querySubs maps admitted query-session names to their server-side
	// evaluation state (sessions whose subscribe frame carried a spec).
	querySubs map[string]*querySub
	conns     map[net.Conn]bool
	closed    bool

	parentConns []net.Conn
	wg          sync.WaitGroup
	// Delivered counts updates received from the parent.
	delivered int
	// failovers counts successful re-connections to a backup parent.
	failovers int

	// dur is the node's write-ahead log glue (nil without durability),
	// guarded by mu.
	dur *dnode.Durable
}

// transport adapts the core's decisions to wire frames. Every call
// happens under Node.mu; wire encoders write to TCP sockets, whose
// buffers apply backpressure naturally. Dependent copies are collected
// per apply pass and flushed as one frame per dependent — the plain
// update frame when the pass produced a single copy, the multi-update
// batch frame when it produced several, so one TCP write carries the
// whole batch.
type transport struct {
	n *Node
	// pend collects the apply pass's dependent copies in decision order.
	pend []depSend
	// err records the first child-push encode failure of an apply pass.
	err error
	// tid/hops are the pass's trace context: the sampled id and the hop
	// stamps accumulated so far (ending with this node's own receipt).
	// Zero for an untraced pass; only single-update frames carry them —
	// a pass that batches drops the trace there.
	tid  uint64
	hops []obs.Hop
}

// depSend is one collected dependent copy awaiting the pass's flush.
type depSend struct {
	dep repository.ID
	up  Update
}

func (t *transport) Now() sim.Time {
	return sim.Time(time.Since(t.n.start) / time.Microsecond)
}

func (t *transport) SendToDependent(dep repository.ID, item string, v float64, resync bool) bool {
	if t.n.childEnc[dep] == nil {
		// Child not dialed in yet: report no path so the core leaves the
		// filter state untouched and the child catches up on the next
		// qualifying update after it joins.
		return false
	}
	t.pend = append(t.pend, depSend{dep, Update{Item: item, Value: v}})
	return true
}

// begin opens an apply pass.
func (t *transport) begin() {
	t.pend = t.pend[:0]
	t.err = nil
	t.tid, t.hops = 0, nil
}

// flush writes the pass's collected copies: per dependent (in
// first-decision order), a single update frame or one batch frame.
func (t *transport) flush() {
	for i := range t.pend {
		dep := t.pend[i].dep
		dup := false
		for j := 0; j < i; j++ {
			if t.pend[j].dep == dep {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		var ups []Update
		for j := i; j < len(t.pend); j++ {
			if t.pend[j].dep == dep {
				ups = append(ups, t.pend[j].up)
			}
		}
		enc := t.n.childEnc[dep]
		if enc == nil {
			continue // unreachable: registration is stable under Node.mu
		}
		var err error
		if len(ups) == 1 {
			err = enc.Encode(&wire.Frame{Kind: wire.KindUpdate, Item: ups[0].Item, Value: ups[0].Value,
				TraceID: t.tid, Hops: t.hops})
		} else {
			err = enc.Encode(&wire.Frame{Kind: wire.KindBatch, Ups: ups})
		}
		if err != nil && t.err == nil {
			t.err = fmt.Errorf("netio: %v pushing to %v: %w", t.n.cfg.ID, dep, err)
		}
	}
}

func (t *transport) SendToClient(s *dnode.Session, item string, v float64, resync bool) {
	switch tag := s.Tag().(type) {
	case *wire.Encoder:
		tag.Encode(&wire.Frame{Kind: wire.KindUpdate, Item: item, Value: v, Resync: resync})
	case *querySub:
		t.n.queryDeliver(tag, t.Now(), item, v, resync)
	}
}

// querySub is the server half of one repository-evaluated query session
// (a subscribe frame carrying a query spec): the wire encoder pushing
// result frames plus the incremental evaluator fed by the deliveries the
// per-client filter forwards. All access happens under Node.mu — the
// session push path already runs there.
type querySub struct {
	q    query.Query
	eval *query.Eval
	enc  *wire.Encoder
}

// queryDeliver runs one filtered input delivery through a query session:
// the evaluator recomputes, and a changed result that passes the
// predicate is pushed as an update frame under the query's result
// pseudo-item — only result changes travel the last hop, which is the
// point of repository-side placement. Caller holds Node.mu.
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
	qs.enc.Encode(&wire.Frame{Kind: wire.KindUpdate, Item: qs.q.ResultItem(), Value: res, Resync: resync})
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
		childEnc:  make(map[repository.ID]*wire.Encoder),
		clientEnc: make(map[string]*wire.Encoder),
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
		n.mu.Lock()
		n.parentConns = append(n.parentConns, conn)
		n.mu.Unlock()
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

// Close shuts the node down and waits for its goroutines.
func (n *Node) Close() error {
	n.mu.Lock()
	n.closed = true
	for conn := range n.conns {
		conn.Close() // unblocks parked child readers
	}
	parents := append([]net.Conn(nil), n.parentConns...)
	n.mu.Unlock()
	err := n.ln.Close()
	for _, conn := range parents {
		conn.Close()
	}
	n.metrics.Close()
	n.wg.Wait()
	n.mu.Lock()
	n.dur.Close()
	n.mu.Unlock()
	return err
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
	return n.apply(item, value, tid, hops)
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
// its share in a single multi-update frame — one TCP write per child per
// batch. Calling it on a non-source node is an error.
func (n *Node) PublishBatch(ups []Update) error {
	if len(n.cfg.Parents) > 0 {
		return errors.New("netio: PublishBatch on a non-source node")
	}
	return n.applyBatch(ups)
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
	return len(n.childEnc)
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
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		conn.Close()
		return
	}
	n.conns[conn] = true
	n.mu.Unlock()
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.conns, conn)
		n.mu.Unlock()
	}()
	dec := wire.NewDecoder(conn)
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
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.childEnc[hello.From] = wire.NewEncoder(conn)
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
	// side closes. Any byte it does send must be a well-formed frame — a
	// corrupt stream fails the strict decoder and drops the registration.
	var discard wire.Frame
	for dec.Decode(&discard) == nil {
	}
	n.mu.Lock()
	delete(n.childEnc, hello.From)
	n.mu.Unlock()
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
		qs = &querySub{q: q, eval: query.NewEval(q), enc: enc}
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	if reason := n.core.CanAdmit(sub.Name, sub.Wants); reason != dnode.RejectNone {
		n.core.NoteRedirect()
		peers := append([]string(nil), n.cfg.SessionPeers...)
		n.mu.Unlock()
		enc.Encode(&wire.Frame{Kind: wire.KindRedirect, Addrs: peers})
		return
	}
	if enc.Encode(&wire.Frame{Kind: wire.KindAccept}) != nil {
		n.mu.Unlock()
		return
	}
	n.clientEnc[sub.Name] = enc
	// Admission resyncs the session to our current copies immediately. A
	// query session's resync feeds the evaluator (counted, like every
	// delivery) instead of shipping raw inputs.
	ns := dnode.NewSession(sub.Name, sub.Wants)
	if qs != nil {
		n.querySubs[sub.Name] = qs
		ns.SetTag(qs)
	} else {
		ns.SetTag(enc)
	}
	n.core.ForceAdmit(ns, &n.tr)
	n.mu.Unlock()

	// Park until either side closes (a client sending garbage fails the
	// strict decoder the same way), then unregister the session.
	var discard wire.Frame
	for dec.Decode(&discard) == nil {
	}
	n.mu.Lock()
	delete(n.clientEnc, sub.Name)
	delete(n.querySubs, sub.Name)
	n.core.DropSession(sub.Name)
	n.mu.Unlock()
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

// parentLoop applies pushes from the parent. When the connection dies —
// the parent crashed or closed — it fails over to the configured backups:
// real connection errors are the detection signal in the TCP runtime, the
// counterpart of the simulator's modeled silence window.
//
// A backup that accepts the dial but drops the connection before sending
// a frame (e.g. it does not actually list this node as a child) triggers
// exponential backoff, so a misconfigured backup list degrades to slow
// retries instead of a hot reconnect loop.
func (n *Node) parentLoop(conn net.Conn) {
	dec := wire.NewDecoder(conn)
	backoff := 50 * time.Millisecond
	framed := false // a frame arrived on the current connection
	var f wire.Frame
	for {
		if err := dec.Decode(&f); err != nil {
			conn.Close()
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
			conn, dec, framed = next, wire.NewDecoder(next), false
			continue
		}
		framed, backoff = true, 50*time.Millisecond
		switch f.Kind {
		case wire.KindUpdate:
			n.mu.Lock()
			n.delivered++
			n.mu.Unlock()
			tid, hops := n.noteArrival(&f)
			n.apply(f.Item, f.Value, tid, hops)
		case wire.KindBatch:
			// A batch stays a batch downstream: one apply pass, one frame
			// per child.
			n.mu.Lock()
			n.delivered += len(f.Ups)
			n.mu.Unlock()
			n.applyBatch(f.Ups)
		}
	}
}

// failover dials the backup parents in order and performs a resync hello
// on the first that answers. It returns false when the node is shutting
// down or no backup is reachable.
func (n *Node) failover() (net.Conn, bool) {
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
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
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return nil, false
		}
		n.parentConns = append(n.parentConns, conn)
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

// apply records the value locally and forwards it — to dependents and
// client sessions both — through the core's filter pipeline. tid/hops
// carry the update's trace context (zero when untraced).
func (n *Node) apply(item string, value float64, tid uint64, hops []obs.Hop) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tr.begin()
	n.tr.tid, n.tr.hops = tid, hops
	n.core.Apply(item, value, &n.tr)
	n.dur.Append(item, value)
	n.dur.Commit()
	n.tr.flush()
	return n.tr.err
}

// applyBatch runs a whole batch through the pipeline in one pass:
// same-item updates coalesce to the newest value (a value superseded
// within its own batch is never disseminated), each survivor applies
// through the core, and the collected copies flush as one frame per
// dependent.
func (n *Node) applyBatch(ups []Update) error {
	n.cfg.Obs.Batch(len(ups))
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tr.begin()
	for _, i := range dnode.CoalesceBatch(len(ups), func(i int) string { return ups[i].Item }) {
		n.core.Apply(ups[i].Item, ups[i].Value, &n.tr)
		n.dur.Append(ups[i].Item, ups[i].Value)
	}
	n.dur.Commit() // one group commit per batch, after every Apply of it
	n.tr.flush()
	return n.tr.err
}
