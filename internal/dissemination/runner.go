package dissemination

import (
	"fmt"
	"maps"
	"slices"
	"sync"

	"d3t/internal/coherency"
	"d3t/internal/node"
	"d3t/internal/obs"
	"d3t/internal/repository"
	"d3t/internal/sim"
	"d3t/internal/trace"
	"d3t/internal/tree"
)

// Config sets the delay model of a simulation run (Section 6.1).
type Config struct {
	// CompDelay is the computational delay a node incurs per dependent it
	// disseminates an update to — checking plus preparing the message.
	// The paper's default is 12.5 ms.
	CompDelay sim.Time
	// CheckFrac is the fraction of CompDelay charged for a dependent that
	// is checked but not forwarded. The paper folds checking into the
	// 12.5 ms per-dissemination cost, so the default is 0; the ablation
	// benches raise it.
	CheckFrac float64
	// Queueing selects the node service model. The default (false)
	// matches the paper: dissemination cost is a per-update latency — the
	// k-th copy of an update leaves k computational delays after the
	// update arrives, so a node with many dependents delays its later
	// dependents, but successive updates do not queue behind each other.
	// With Queueing true the node is a strict serial server (a
	// sim.Station): back-to-back updates queue, and an overcommitted node
	// grows an unbounded backlog — a harsher model useful for studying
	// saturation (the ablation-queueing experiment).
	Queueing bool
	// Observer, when set, watches the run's source ticks and repository
	// deliveries — the client-serving layer hangs sessions off it. A nil
	// observer leaves the run byte-identical to one without the field.
	Observer Observer
	// Obs, when set, attaches the observability layer: per-node counters
	// (through the protocol's node cores, where it has them), per-hop and
	// source→node latency histograms, per-edge delay EWMAs,
	// fidelity-violation durations, and — when Obs.Tracer is armed —
	// sampled update traces. Observation is passive: a run with Obs set
	// produces byte-identical results to one without.
	Obs *obs.Tree

	// accepts, when set, restricts the run to the items it admits: only
	// their source ticks are scheduled and only their fidelity is tracked,
	// while the full trace set still supplies initial values and the
	// observation horizon. RunShards gives each shard its own partition
	// through it; nil accepts everything.
	accepts func(item string) bool
}

// Observer receives the run's observable events in simulation order. The
// engine is single-threaded, so implementations need no locking.
type Observer interface {
	// ObserveSource fires when the source's value of item changes.
	ObserveSource(now sim.Time, item string, v float64)
	// ObserveDeliver fires when an update copy lands at a live repository.
	ObserveDeliver(now sim.Time, repo repository.ID, item string, v float64)
}

// defaultCompDelay resolves the delay convention push and pull configs
// share: zero means the paper's 12.5 ms; negative means "explicitly
// zero" (the ideal-conditions runs that verify the 100%-fidelity
// guarantees use it).
func defaultCompDelay(d sim.Time) sim.Time {
	switch {
	case d == 0:
		return sim.Milliseconds(12.5)
	case d < 0:
		return 0
	}
	return d
}

// Stats counts the work a run performed.
type Stats struct {
	// Messages is the number of update copies pushed over overlay edges.
	Messages uint64
	// SourceChecks counts filtering checks performed at the source
	// (per-dependent for the distributed algorithm, per-unique-tolerance
	// for the centralized one — the Figure 11a comparison).
	SourceChecks uint64
	// RepoChecks counts filtering checks performed at repositories.
	RepoChecks uint64
	// Deliveries counts updates actually delivered to repositories within
	// the observation horizon.
	Deliveries uint64
	// SourceTicks counts trace ticks that changed an item's value.
	SourceTicks uint64
	// Events is the number of simulation events executed.
	Events uint64
}

// Result is the outcome of one simulation run.
type Result struct {
	// Protocol is the protocol name.
	Protocol string
	// Report holds per-repository fidelity.
	Report *coherency.Report
	// Stats holds work counters.
	Stats Stats
	// Horizon is the observation end time (the last trace tick).
	Horizon sim.Time
	// SourceUtilization is the fraction of the horizon the source's
	// processing resource was busy — the bottleneck indicator behind the
	// rising arm of the U-curve.
	SourceUtilization float64
}

// frame is the run frame every simulation shares — push (Run), push
// under faults (resilience.Run, through Loop) and pull (RunPull): trace
// validation, initial values and horizon, the engine and per-node
// stations, one fidelity tracker per (repository, needed item) pair,
// the source feed and the result assembly.
type frame struct {
	engine   *sim.Engine
	stations []sim.Station
	initial  map[string]float64
	horizon  sim.Time
	// items interns the trace items — events carry an item as its
	// trace's index; index is the way back for callers that name one.
	items []string
	index map[string]int32
	// trackers lists each item's interested repositories; byRepo holds
	// the same trackers as a dense [item index][node id] table for the
	// delivery path.
	trackers [][]repoTracker
	byRepo   [][]*coherency.Tracker
	stats    Stats
}

type repoTracker struct {
	repo repository.ID
	tr   *coherency.Tracker
}

// cursor walks one trace's value-changing ticks.
type cursor struct {
	ticks []trace.Tick
	item  int32
	last  float64
}

// Event kinds of the simulation loop; a layer's kinds follow (Loop.Kind).
const (
	kindTick    sim.Kind = iota + 1 // source feed: Item, V
	kindDeliver                     // one update copy arriving: every field
	kindLayer
)

// newFrame validates the traces and builds the frame. Time zero holds
// the initial value of every trace at every node; fidelity is observed
// from time zero to the last trace tick, at each repository's own
// client-facing tolerance. accepts restricts tracking and source ticks
// to the items it admits; with ot set, every tracker reports its
// violation durations to its repository's observer.
func newFrame(o *tree.Overlay, traces []*trace.Trace, accepts func(string) bool, ot *obs.Tree) (*frame, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("dissemination: no traces to run")
	}
	f := &frame{
		engine:   sim.New(),
		stations: make([]sim.Station, len(o.Nodes)),
		initial:  make(map[string]float64, len(traces)),
		items:    make([]string, len(traces)),
		index:    make(map[string]int32, len(traces)),
		trackers: make([][]repoTracker, len(traces)),
		byRepo:   make([][]*coherency.Tracker, len(traces)),
	}
	cells := make([]*coherency.Tracker, len(traces)*len(o.Nodes))
	var lane []cursor // one per accepted trace, in trace order
	for i, tr := range traces {
		if tr.Len() == 0 {
			return nil, fmt.Errorf("dissemination: trace %s is empty", tr.Item)
		}
		if _, dup := f.initial[tr.Item]; dup {
			return nil, fmt.Errorf("dissemination: duplicate trace for item %s", tr.Item)
		}
		f.initial[tr.Item] = tr.Ticks[0].Value
		f.items[i], f.index[tr.Item] = tr.Item, int32(i)
		if end := tr.Ticks[tr.Len()-1].At; end > f.horizon {
			f.horizon = end
		}
		f.byRepo[i], cells = cells[:len(o.Nodes)], cells[len(o.Nodes):]
		if accepts == nil || accepts(tr.Item) {
			lane = append(lane, cursor{ticks: tr.Ticks[1:], item: int32(i), last: tr.Ticks[0].Value})
		}
	}
	for _, n := range o.Repos() {
		for _, x := range n.NeededItems() {
			if accepts != nil && !accepts(x) {
				continue
			}
			i, ok := f.index[x]
			if !ok {
				return nil, fmt.Errorf("dissemination: repository %d needs item %s with no trace", n.ID, x)
			}
			t := coherency.NewTracker(n.Needs[x], 0, f.initial[x])
			if ot != nil {
				on := ot.Node(n.ID)
				t.OnViolationEnd = func(start, end sim.Time) {
					on.ObserveViolation(int64(end - start))
				}
			}
			f.trackers[i] = append(f.trackers[i], repoTracker{repo: n.ID, tr: t})
			f.byRepo[i][n.ID] = t
		}
	}
	// The source feed: one kindTick event per value-changing tick of every
	// accepted trace, as an engine lane over the traces themselves rather
	// than as events in its heap (sim.SetLane has the ordering: as if all
	// were queued, trace by trace, before anything else). Quiet ticks (no
	// value change) cost nothing: the paper's sources react to new data
	// values.
	f.engine.SetLane(kindTick, len(lane), func(c int) (sim.Time, sim.Payload, bool) {
		cu := &lane[c]
		for len(cu.ticks) > 0 {
			tk := cu.ticks[0]
			cu.ticks = cu.ticks[1:]
			if tk.Value != cu.last {
				cu.last = tk.Value
				return tk.At, sim.Payload{Item: cu.item, V: tk.Value}, true
			}
		}
		return 0, sim.Payload{}, false
	})
	return f, nil
}

// tick is the frame's share of a source tick: count it and move the
// item's trackers.
func (f *frame) tick(now sim.Time, item int32, v float64) {
	f.stats.SourceTicks++
	for _, rt := range f.trackers[item] {
		rt.tr.SourceUpdate(now, v)
	}
}

// run advances the clock to the horizon and assembles the result: the
// fidelity report in sorted item order (so per-repository means sum in
// one order whatever the trace order), the counters, and the source's
// busy fraction.
func (f *frame) run(protocol string) *Result {
	f.engine.RunUntil(f.horizon)
	report := coherency.NewReport()
	for _, x := range slices.Sorted(maps.Keys(f.index)) {
		for _, rt := range f.trackers[f.index[x]] {
			report.Add(int(rt.repo), rt.tr.Fidelity(f.horizon))
		}
	}
	f.stats.Events = f.engine.Processed()
	return &Result{
		Protocol:          protocol,
		Report:            report,
		Stats:             f.stats,
		Horizon:           f.horizon,
		SourceUtilization: f.stations[repository.SourceID].Utilization(f.horizon),
	}
}

// Layer is the seam failure machinery attaches to the push loop through
// (internal/resilience is the one implementation). The loop stays the
// only owner of the event path and the cost model; a layer sees four
// calls — these three hooks plus Loop.Resync — and schedules whatever
// else it needs (crashes, heartbeats, watchdogs) as its own events.
type Layer interface {
	// Start runs once, before the clock starts: the layer schedules its
	// own events with Loop.At and the kinds it registers with Loop.Kind.
	// Insertion order breaks timestamp ties and the source feed precedes
	// every insertion, so a layer event at time t runs after the source
	// tick at t.
	Start(l *Loop)
	// Admit gates a copy on arrival at node to over the edge from its
	// sender. A refused copy is dropped before the trackers, the
	// observers, the protocol and Applied see it.
	Admit(now sim.Time, to, from repository.ID) bool
	// Applied runs after the protocol applied a value at node id — a
	// delivered copy at a repository, a tick at the source — and before
	// the resulting copies are dispatched.
	Applied(now sim.Time, id repository.ID, item string, v float64)
}

// Loop is the one simulation loop of the push path: source tick →
// deliver → dispatch → send over the frame's engine, with the latency /
// queueing service models of Config.
type Loop struct {
	*frame
	overlay  *tree.Overlay
	cfg      Config
	protocol Protocol
	layer    Layer
	// kinds holds the handlers of the layer's typed events, in
	// registration order from kindLayer up.
	kinds []func(now sim.Time, a, b repository.ID)
	// obsNodes (indexed by node id) and tracer are non-nil only when
	// cfg.Obs is set; the delivery path guards with one nil check.
	obsNodes []*obs.Node
	tracer   *obs.Tracer
}

// NewLoop validates the run, builds its frame and initializes the
// protocol; nothing but the source feed is scheduled yet, so a caller
// attaching a Layer can restore state into the protocol before Run
// starts the clock. The
// overlay must contain a parent path for every needed item (tree
// builders guarantee this; the loop validates lazily by panicking inside
// the engine otherwise).
func NewLoop(o *tree.Overlay, traces []*trace.Trace, p Protocol, cfg Config) (*Loop, error) {
	cfg.CompDelay = defaultCompDelay(cfg.CompDelay)
	f, err := newFrame(o, traces, cfg.accepts, cfg.Obs)
	if err != nil {
		return nil, err
	}
	p.Init(o, f.initial)
	l := &Loop{frame: f, overlay: o, cfg: cfg, protocol: p}
	f.engine.Handle(l.handle)
	if cfg.Obs != nil {
		// Protocols carrying node cores (the distributed algorithm) attach
		// per-node observers so the decision counters land in obs too.
		if po, ok := p.(interface{ SetObs(*obs.Tree) }); ok {
			po.SetObs(cfg.Obs)
		}
		// Node ids are dense (stations are indexed by them), so the per-id
		// observer lookup on the delivery path is a slice read.
		l.obsNodes = make([]*obs.Node, len(o.Nodes))
		for id := range l.obsNodes {
			l.obsNodes[id] = cfg.Obs.Node(repository.ID(id))
		}
		l.tracer = cfg.Obs.TracerOrNil()
	}
	return l, nil
}

// Run starts the layer (nil runs without one), runs the clock to the
// horizon and returns fidelity and work statistics.
func (l *Loop) Run(layer Layer) *Result {
	l.layer = layer
	if layer != nil {
		layer.Start(l)
	}
	return l.run(l.protocol.Name())
}

// Run simulates pushing the traces through the overlay with the given
// protocol and returns fidelity and work statistics.
func Run(o *tree.Overlay, traces []*trace.Trace, p Protocol, cfg Config) (*Result, error) {
	l, err := NewLoop(o, traces, p, cfg)
	if err != nil {
		return nil, err
	}
	return l.Run(nil), nil
}

// RunShards is Run with the items hash-partitioned (node.ShardOf) across
// parallel runs, each over the full overlay and time base but its own
// item partition, merged into one result. The paper's dissemination is
// strictly per item — an item's tree, edge filter state and trackers
// touch no other item's — so in the latency model the partition is
// exact: every per-(repository, item) fidelity, delivery time and filter
// decision equals Run's, and the merged aggregates differ from it by at
// most floating-point summation order. With shards <= 1 it is Run.
//
// newProtocol builds one protocol per shard (a protocol holds per-run
// state); the instances are returned for decision-level instrumentation.
// There are never more shards than traces, so a shard count from user
// input cannot start more runs than there are items. The queueing model
// shares each node's serial station across items and an observer sees
// events in global time order, so more than one shard rejects both.
func RunShards(o *tree.Overlay, traces []*trace.Trace, newProtocol func() Protocol, cfg Config, shards int) (*Result, []Protocol, error) {
	if shards = min(shards, len(traces)); shards <= 1 {
		p := newProtocol()
		res, err := Run(o, traces, p, cfg)
		return res, []Protocol{p}, err
	}
	if cfg.Queueing {
		return nil, nil, fmt.Errorf("dissemination: the queueing node model couples items through shared stations and cannot be sharded")
	}
	if cfg.Observer != nil {
		return nil, nil, fmt.Errorf("dissemination: run observers see events in global time order and cannot be sharded")
	}
	protos := make([]Protocol, shards)
	results := make([]*Result, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s := range protos {
		protos[s] = newProtocol()
		scfg := cfg
		scfg.accepts = func(item string) bool { return node.ShardOf(item, shards) == s }
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[s], errs[s] = Run(o, traces, protos[s], scfg)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	merged := &Result{Protocol: protos[0].Name(), Report: coherency.NewReport()}
	for _, r := range results {
		merged.Report.Merge(r.Report)
		merged.Stats.Messages += r.Stats.Messages
		merged.Stats.SourceChecks += r.Stats.SourceChecks
		merged.Stats.RepoChecks += r.Stats.RepoChecks
		merged.Stats.Deliveries += r.Stats.Deliveries
		merged.Stats.SourceTicks += r.Stats.SourceTicks
		merged.Stats.Events += r.Stats.Events
		merged.Horizon = max(merged.Horizon, r.Horizon)
		// Every shard's horizon derives from the full trace set, so the
		// source's busy fractions add.
		merged.SourceUtilization += r.SourceUtilization
	}
	return merged, protos, nil
}

// handle is the engine's one handler: it dispatches a typed event by
// kind.
func (l *Loop) handle(now sim.Time, kind sim.Kind, p sim.Payload) {
	switch kind {
	case kindTick:
		l.sourceTick(now, p)
	case kindDeliver:
		l.deliver(now, p)
	default:
		l.kinds[kind-kindLayer](now, repository.ID(p.To), repository.ID(p.From))
	}
}

// At schedules a layer's own one-off event on the loop's clock.
func (l *Loop) At(t sim.Time, fn func(now sim.Time)) { l.engine.At(t, fn) }

// Kind registers fn as the handler of a new typed event kind carrying
// two node ids and returns the call that schedules one. Unlike At it
// allocates nothing per event — for a layer's periodic work.
func (l *Loop) Kind(fn func(now sim.Time, a, b repository.ID)) func(t sim.Time, a, b repository.ID) {
	kind := kindLayer + sim.Kind(len(l.kinds))
	l.kinds = append(l.kinds, fn)
	return func(t sim.Time, a, b repository.ID) {
		l.engine.Schedule(t, kind, sim.Payload{To: int32(a), From: int32(b)})
	}
}

// Resync ships one copy of (item, v) from node from to its dependent to
// outside the protocol's filter — the catch-up push after a re-homing.
// The protocol's per-edge filter state (Distributed and its naive
// variant keep some; stateless protocols need nothing) is re-seeded to
// the synced value first: a revived edge would otherwise filter against
// its pre-crash state and withhold updates. The copy then goes through
// the normal cost model with no checks charged — it queues at the
// sender's station like any other copy.
func (l *Loop) Resync(now sim.Time, from, to repository.ID, item string, v float64) {
	if er, ok := l.protocol.(interface {
		ResetEdge(from, to repository.ID, x string, v float64)
	}); ok {
		er.ResetEdge(from, to, item, v)
	}
	idx, ok := l.index[item]
	if !ok {
		panic(fmt.Sprintf("dissemination: resync of item %s, which has no trace", item))
	}
	l.dispatch(now, []Forward{{To: to}}, 0, sim.Payload{From: int32(from), Item: idx, V: v, Born: now})
}

// sourceTick handles a changed value arriving at the source. From here
// on p is the update on its way through the event graph: besides item
// and value it carries the observability context — when it left the
// source (Born) and its trace id (Trace, 0 when not sampled).
func (l *Loop) sourceTick(now sim.Time, p sim.Payload) {
	l.tick(now, p.Item, p.V)
	item := l.items[p.Item]
	if l.cfg.Observer != nil {
		l.cfg.Observer.ObserveSource(now, item, p.V)
	}
	p.From, p.Born = int32(repository.SourceID), now
	if l.tracer != nil {
		p.Trace = l.tracer.Sample(item, repository.SourceID, int64(now))
	}
	fwd, checks := l.protocol.AtSource(item, p.V)
	if l.layer != nil {
		l.layer.Applied(now, repository.SourceID, item, p.V)
	}
	l.stats.SourceChecks += uint64(checks)
	l.dispatch(now, fwd, checks, p)
}

// deliver handles an update copy arriving at a repository: record it for
// fidelity, then let the protocol fan it out further. p.Hop is the
// propagation delay since the copy's sender received (or sourced) the
// update, p.From is the sender — the edge the copy arrived over.
func (l *Loop) deliver(now sim.Time, p sim.Payload) {
	id, from := repository.ID(p.To), repository.ID(p.From)
	if l.layer != nil && !l.layer.Admit(now, id, from) {
		return
	}
	l.stats.Deliveries++
	if t := l.byRepo[p.Item][id]; t != nil {
		t.RepoUpdate(now, p.V)
	}
	if l.obsNodes != nil {
		on := l.obsNodes[id]
		on.ObserveHop(int64(p.Hop))
		on.ObserveSourceLatency(int64(now - p.Born))
		on.ObserveEdgeDelay(from, int64(p.Hop))
		l.tracer.Hop(p.Trace, id, int64(now))
	}
	item := l.items[p.Item]
	if l.cfg.Observer != nil {
		l.cfg.Observer.ObserveDeliver(now, id, item, p.V)
	}
	fwd, checks := l.protocol.AtRepo(l.overlay.Node(id), item, p.V, coherency.Requirement(p.Tag))
	if l.layer != nil {
		l.layer.Applied(now, id, item, p.V)
	}
	l.stats.RepoChecks += uint64(checks)
	p.From = p.To
	l.dispatch(now, fwd, checks, p)
}

// dispatch charges node p.From's computational delays for the checks and
// sends, and schedules the resulting deliveries of update p after the
// per-pair communication delay.
//
// In the default (latency) model the k-th forwarded copy departs k
// computational delays after the update arrives: a node with many
// dependents makes its later dependents stale — the computational-delay
// effect of Section 3 — without successive updates queueing. In the
// queueing model the node is a strict serial server and backlog carries
// across updates.
func (l *Loop) dispatch(now sim.Time, fwd []Forward, checks int, p sim.Payload) {
	st := &l.stations[p.From]
	var preamble sim.Time
	if extra := checks - len(fwd); extra > 0 && l.cfg.CheckFrac > 0 {
		preamble = sim.Time(float64(l.cfg.CompDelay) * l.cfg.CheckFrac * float64(extra))
	}
	if l.cfg.Queueing {
		if preamble > 0 {
			st.Acquire(now, preamble)
		}
		for _, f := range fwd {
			done := st.Acquire(now, l.cfg.CompDelay)
			l.send(done, now, f, p)
		}
		return
	}
	// Latency model: account the work for utilization reporting, then
	// schedule departures relative to the update's arrival only.
	st.Busy += preamble + sim.Time(len(fwd))*l.cfg.CompDelay
	st.Jobs++
	depart := now + preamble
	for _, f := range fwd {
		depart += l.cfg.CompDelay
		l.send(depart, now, f, p)
	}
}

// send emits one copy of update p departing at the given time and
// schedules its delivery after the wire delay. recvAt is when the sender
// received the update — the anchor of the hop-delay measurement, so a
// hop includes the sender's computational delay exactly as a wall-clock
// backend would observe it.
func (l *Loop) send(depart, recvAt sim.Time, f Forward, p sim.Payload) {
	l.stats.Messages++
	arrive := depart + l.overlay.Net.Delay[p.From][f.To]
	p.To, p.Tag, p.Hop = int32(f.To), float64(f.Tag), arrive-recvAt
	l.engine.Schedule(arrive, kindDeliver, p)
}
