package resilience

import (
	"fmt"
	"path/filepath"
	"sort"

	"d3t/internal/dissemination"
	"d3t/internal/node"
	"d3t/internal/repository"
	"d3t/internal/sim"
	"d3t/internal/trace"
	"d3t/internal/tree"
	"d3t/internal/wal"
)

// Config parameterizes a resilient simulation run.
type Config struct {
	// Push is the delay model of the underlying push dissemination. When
	// Push.Observer also implements this package's Observer it sees the
	// crashes and rejoins as well — the client-serving layer migrates
	// sessions off dead repositories that way.
	Push dissemination.Config
	// Heartbeat is the keep-alive interval between overlay neighbors.
	// Default 2 s.
	Heartbeat sim.Time
	// DetectK is the silence window in heartbeat intervals: a neighbor
	// silent (no push, no heartbeat) for DetectK*Heartbeat is declared
	// dead. Default 3.
	DetectK int
	// BackupK is the precomputed backup-parent list length. Default 5.
	BackupK int
	// Durability, when set, gives every repository a write-ahead log
	// under Durability.Dir (one subdirectory per repository): each
	// delivered update is appended and group-committed, a kill: fault
	// closes the log with the process, and the rejoin recovers from disk
	// instead of coming back cold. Nil leaves the run byte-identical to
	// one without the field.
	Durability *wal.Options
	// ReplayPerRecord and SnapshotLoad model the recovery cost in
	// simulated time: a disk rejoin completes SnapshotLoad +
	// ReplayPerRecord per replayed record after the rejoin event.
	// Defaults 50 µs and 5 ms — deterministic, never wall-clock.
	ReplayPerRecord sim.Time
	SnapshotLoad    sim.Time
}

// Observer extends the dissemination observer with fault events.
type Observer interface {
	dissemination.Observer
	// ObserveCrash fires when a repository goes down.
	ObserveCrash(now sim.Time, id repository.ID)
	// ObserveRejoin fires when a crashed repository comes back.
	ObserveRejoin(now sim.Time, id repository.ID)
}

// WithDefaults resolves the zero values to the layer's defaults (the
// push delay conventions are the loop's to resolve). Exported so figures
// and tests can report the effective detection window.
func (c Config) WithDefaults() Config {
	if c.Heartbeat == 0 {
		c.Heartbeat = 2 * sim.Second
	}
	if c.DetectK <= 0 {
		c.DetectK = 3
	}
	if c.BackupK <= 0 {
		c.BackupK = 5
	}
	if c.ReplayPerRecord == 0 {
		c.ReplayPerRecord = 50 * sim.Microsecond
	}
	if c.SnapshotLoad == 0 {
		c.SnapshotLoad = 5 * sim.Millisecond
	}
	return c
}

// Window returns the detection silence window.
func (c Config) Window() sim.Time { return sim.Time(c.DetectK) * c.Heartbeat }

// Stats counts the resilience machinery's work during one run.
type Stats struct {
	// Crashes and Rejoins count executed fault-plan events.
	Crashes, Rejoins int
	// Detections counts parent-death declarations by dependents.
	Detections int
	// ChildDrops counts dead-child edge removals by parents.
	ChildDrops int
	// Rehomed counts re-established (dependent, item) feeds; Orphaned
	// counts feeds that found no live parent with capacity (retried on
	// later watchdog passes until one succeeds).
	Rehomed, Orphaned int
	// Heartbeats counts keep-alive messages sent (kept out of
	// Stats.Messages so data-path message counts stay comparable across
	// fault-free and faulty runs).
	Heartbeats uint64
	// DroppedDeliveries counts update copies that arrived at a dead node.
	DroppedDeliveries uint64
	// RecoverySamples, MeanRecovery and MaxRecovery summarize the time
	// from a crash to a dependent's re-homing onto a live parent.
	RecoverySamples int
	MeanRecovery    sim.Time
	MaxRecovery     sim.Time
	// Kills counts executed kill: faults (process deaths losing all
	// in-memory state, unlike the network-outage crashes above).
	Kills int
	// DiskRecoveries counts rejoins that restored state from the
	// write-ahead log; ReplayedRecords the log records they (and the
	// run's start, see RestoredAtStart) replayed.
	DiskRecoveries  int
	ReplayedRecords int
	// RestoredAtStart counts repositories that recovered state from disk
	// when the run began — a full-cluster restart resuming where the
	// previous run's logs left off.
	RestoredAtStart int
	// ReplayTime and MeanReplay total and average the modeled
	// disk-recovery delay (snapshot load + per-record replay).
	ReplayTime sim.Time
	MeanReplay sim.Time
}

// Result extends the dissemination result with resilience statistics.
type Result struct {
	*dissemination.Result
	// Resilience carries the fault/repair counters.
	Resilience Stats
}

// Run simulates pushing the traces through the overlay under the fault
// plan: nodes crash and rejoin per the plan, neighbors exchange
// heartbeats, dependents detect dead parents after the silence window and
// re-home to their precomputed backups. The run itself — source ticks,
// deliveries, the cost model, fidelity measurement — is
// dissemination's loop; this package attaches to it as a layer. lela
// supplies the re-homing policy (preference function and augmentation);
// a nil plan runs fault-free, heartbeats included.
//
// The overlay is mutated by repairs, like it is by construction; callers
// wanting the pre-fault overlay must rebuild it.
func Run(o *tree.Overlay, lela *tree.LeLA, traces []*trace.Trace, p dissemination.Protocol, cfg Config, plan *Plan) (*Result, error) {
	cfg = cfg.WithDefaults()
	if lela == nil {
		lela = &tree.LeLA{}
	}
	n := len(o.Nodes)
	r := &layer{
		o: o, lela: lela, cfg: cfg,
		protocol:  p,
		dead:      make(map[repository.ID]bool),
		crashedAt: make([]sim.Time, n),
		values:    make([]map[string]float64, n),
		lastHeard: make([][]sim.Time, n),
		backups:   make([][]repository.ID, n),
		orphans:   make(map[repository.ID]map[string]sim.Time),
		killed:    make([]bool, n),
	}
	r.observer, _ = cfg.Push.Observer.(Observer)

	// The victim of an AutoInterior fault is resolved now, against the
	// built overlay.
	if !plan.Empty() {
		auto := busiestInterior(o)
		for _, f := range plan.Faults {
			if f.Node == AutoInterior {
				f.Node = auto
			}
			if f.Node <= 0 || int(f.Node) >= n {
				return nil, fmt.Errorf("resilience: fault targets unknown repository %d", f.Node)
			}
			r.faults = append(r.faults, f)
		}
	}

	loop, err := dissemination.NewLoop(o, traces, p, cfg.Push)
	if err != nil {
		return nil, err
	}
	for i := range r.values {
		r.lastHeard[i] = make([]sim.Time, n)
		r.values[i] = make(map[string]float64)
	}
	for _, tr := range traces {
		r.values[repository.SourceID][tr.Item] = tr.Ticks[0].Value
	}
	for _, q := range o.Repos() {
		for _, x := range q.Items() {
			if v, ok := r.values[repository.SourceID][x]; ok {
				r.values[q.ID][x] = v
			}
		}
		r.backups[q.ID] = lela.BackupParents(o, q.ID, cfg.BackupK)
	}

	// Durable state: open (and recover) every repository's write-ahead
	// log after the protocol is initialized and before anything is
	// scheduled. A directory left by a previous run — the
	// full-cluster-restart case — restores here, so this run resumes with
	// the previous run's exact per-item values and edge state. The source
	// is not logged: it regenerates from the traces.
	if cfg.Durability != nil {
		r.logs = make([]*node.Durable, n)
		defer func() {
			for _, d := range r.logs {
				d.Close()
			}
		}()
		for _, q := range o.Repos() {
			rec, err := r.openLog(q.ID)
			if err != nil {
				return nil, fmt.Errorf("resilience: repository %d: %w", q.ID, err)
			}
			if !rec.Empty() {
				r.res.RestoredAtStart++
				r.res.ReplayedRecords += len(rec.Batches)
			}
		}
	}

	res := loop.Run(r)
	for _, d := range r.logs {
		r.noteErr(d.Err())
	}
	if r.walErr != nil {
		return nil, r.walErr
	}
	if r.res.RecoverySamples > 0 {
		r.res.MeanRecovery = r.recoverySum / sim.Time(r.res.RecoverySamples)
	}
	if r.res.DiskRecoveries > 0 {
		r.res.MeanReplay = r.res.ReplayTime / sim.Time(r.res.DiskRecoveries)
	}
	if !plan.Empty() {
		res.Protocol += "+faults"
	}
	return &Result{Result: res, Resilience: r.res}, nil
}

// busiestInterior returns the repository serving the most dependents (the
// AutoInterior victim), preferring lower ids on ties; when no repository
// serves anyone (a direct overlay) it falls back to repository 1.
func busiestInterior(o *tree.Overlay) repository.ID {
	best, bestChildren := repository.ID(1), 0
	for _, n := range o.Repos() {
		if c := n.NumChildren(); c > bestChildren {
			best, bestChildren = n.ID, c
		}
	}
	return best
}

// layer is the failure machinery of one run, attached to
// dissemination's loop: liveness, silence clocks, backup lists, orphaned
// feeds, each node's current copies (what a re-homed dependent is synced
// from) and the write-ahead logs.
type layer struct {
	o        *tree.Overlay
	lela     *tree.LeLA
	cfg      Config
	loop     *dissemination.Loop
	protocol dissemination.Protocol
	observer Observer // nil unless the run's observer watches faults too
	faults   []Fault  // the plan with its victims resolved

	dead      map[repository.ID]bool // the nodes currently down
	crashedAt []sim.Time
	values    []map[string]float64
	lastHeard [][]sim.Time // lastHeard[a][b]: when a last heard from b
	backups   [][]repository.ID
	// orphans holds feeds awaiting a live parent, each carrying the
	// causing crash's time (0 when unknown) so a later successful retry
	// still reports the full severed duration as recovery latency.
	orphans map[repository.ID]map[string]sim.Time

	// logs are the per-repository write-ahead logs (nil without
	// durability; a killed node's slot is nil while it is down). killed
	// marks nodes whose in-memory state died with the process. walErr
	// records the first log failure; the run reports it at the end.
	logs   []*node.Durable
	killed []bool
	walErr error

	// beat, watch and heard schedule the layer's periodic events — a
	// node's next heartbeat, its next watchdog pass, a heartbeat's arrival
	// — as typed kinds of the loop; peers is their reused neighbor buffer.
	beat, watch, heard func(t sim.Time, a, b repository.ID)
	peers              []repository.ID

	res         Stats
	recoverySum sim.Time
}

// coreOf returns the protocol's core for id: protocols built on the
// shared repository core (Distributed and its naive variant) recover
// values and edge filter state into it; protocols without one (AllPush)
// return nil and recover values only.
func (r *layer) coreOf(id repository.ID) *node.Core {
	if h, ok := r.protocol.(interface {
		Core(repository.ID) *node.Core
	}); ok {
		return h.Core(id)
	}
	return nil
}

// openLog opens the repository's log directory, recovering what it
// holds into the node's core and value map.
func (r *layer) openLog(id repository.ID) (*wal.Recovered, error) {
	dir := filepath.Join(r.cfg.Durability.Dir, fmt.Sprintf("repo%03d", id))
	d, rec, err := node.OpenDurable(dir, *r.cfg.Durability, r.coreOf(id), r.values[id])
	if err != nil {
		return nil, err
	}
	r.logs[id] = d
	return rec, nil
}

// noteErr latches the run's first log failure.
func (r *layer) noteErr(err error) {
	if err != nil && r.walErr == nil {
		r.walErr = err
	}
}

// Start implements dissemination.Layer: fault-plan events first, then
// every node's heartbeat and watchdog — insertion order breaks timestamp
// ties, and the source feed precedes every insertion.
func (r *layer) Start(l *dissemination.Loop) {
	r.loop = l
	r.beat, r.watch, r.heard = l.Kind(r.heartbeat), l.Kind(r.watchdog), l.Kind(r.heartbeatArrived)
	for _, f := range r.faults {
		id, kill := f.Node, f.Kill
		l.At(f.At, func(now sim.Time) { r.crash(now, id, kill) })
		if f.RejoinAt > 0 {
			l.At(f.RejoinAt, func(now sim.Time) { r.rejoin(now, id) })
		}
	}
	// Heartbeats and watchdogs, staggered deterministically per node so
	// the detection load does not arrive in lockstep.
	// Every node — source included — runs both loops: the source has no
	// parents to watch, but it must still drop dead children to free its
	// connection slots for repairs.
	for _, q := range r.o.Nodes {
		offset := sim.Time((int64(q.ID)*7919 + 13) % int64(r.cfg.Heartbeat))
		r.beat(offset, q.ID, 0)
		r.watch(offset+r.cfg.Heartbeat/2, q.ID, 0)
	}
}

// Admit implements dissemination.Layer. Copies arriving at a dead node
// are dropped on the floor — exactly what a crashed process does with
// packets addressed to it; any other copy also resets the receiver's
// silence clock for its sender.
func (r *layer) Admit(now sim.Time, to, from repository.ID) bool {
	if r.dead[to] {
		r.res.DroppedDeliveries++
		return false
	}
	r.lastHeard[to][from] = now
	return true
}

// Applied implements dissemination.Layer: remember the node's new copy
// and log it. In the unbatched simulator a delivery is the batch
// boundary, so each one group-commits (the source has no log).
func (r *layer) Applied(_ sim.Time, id repository.ID, item string, v float64) {
	r.values[id][item] = v
	if r.logs != nil {
		r.logs[id].Append(item, v)
		r.logs[id].Commit()
	}
}

// crash takes a node down: it stops forwarding, heartbeating and
// accepting deliveries. Its edges stay in place until neighbors detect
// the silence. A kill is a process death on top of that: every byte of
// in-memory state — values, fan-out plans, edge filter state — is gone,
// and the node's log handle dies with the process (recovery reopens the
// directory, exactly like a restarted binary would).
func (r *layer) crash(now sim.Time, id repository.ID, kill bool) {
	if r.dead[id] {
		return
	}
	r.dead[id] = true
	r.crashedAt[id] = now
	r.res.Crashes++
	if kill {
		r.res.Kills++
		r.killed[id] = true
		r.values[id] = make(map[string]float64)
		if c := r.coreOf(id); c != nil {
			c.WipeDurable()
		}
		if r.logs != nil {
			// The simulated process cannot fsync on its way out; Close here
			// stands in for the OS reclaiming the descriptor. Committed
			// records are already flushed, which is all recovery needs.
			r.logs[id].Close()
			r.noteErr(r.logs[id].Err())
			r.logs[id] = nil
		}
	}
	if r.observer != nil {
		r.observer.ObserveCrash(now, id)
	}
}

// rejoin brings a downed node back. A plain crash warm-restarts
// immediately: stale copies are kept (they were stale the moment the
// process died). A killed node restarts as a fresh process: with
// durability it first recovers from disk — reopen the log directory,
// restore the snapshot, replay the records — and completes the rejoin
// after the modeled recovery delay; without durability it completes at
// once, cold, serving nothing until feeds resync (the bug this
// machinery fixes).
func (r *layer) rejoin(now sim.Time, id repository.ID) {
	if !r.dead[id] {
		return
	}
	if r.killed[id] {
		r.killed[id] = false
		if r.cfg.Durability != nil {
			rec, err := r.openLog(id)
			if err != nil {
				r.noteErr(fmt.Errorf("resilience: repository %d recovery: %w", id, err))
				return
			}
			r.res.DiskRecoveries++
			r.res.ReplayedRecords += len(rec.Batches)
			delay := r.cfg.SnapshotLoad + sim.Time(len(rec.Batches))*r.cfg.ReplayPerRecord
			r.res.ReplayTime += delay
			// The node stays down (deliveries drop, heartbeats silent)
			// while it replays; the rejoin completes when replay does.
			r.loop.At(now+delay, func(t sim.Time) { r.completeRejoin(t, id) })
			return
		}
	}
	r.completeRejoin(now, id)
}

// completeRejoin finishes a restart: the node is alive again, detaches
// from stale parents, and re-homes every feed it serves.
func (r *layer) completeRejoin(now sim.Time, id repository.ID) {
	if !r.dead[id] {
		return
	}
	delete(r.dead, id)
	r.crashedAt[id] = 0
	r.res.Rejoins++
	if r.observer != nil {
		r.observer.ObserveRejoin(now, id)
	}

	q := r.o.Node(id)
	// Detach cleanly from every old parent (some already dropped us as a
	// dead child), then re-home every item the node still serves — its own
	// needs plus anything held for surviving dependents.
	for _, n := range r.o.Nodes {
		if n.ID != id {
			n.DropDependent(id)
		}
	}
	q.Parents = map[string]repository.ID{}
	q.Liaison = repository.NoID
	for _, x := range q.Items() {
		r.rehomeFeed(now, q, x, 0)
	}
	// Fresh silence clocks: the node should not instantly "detect" peers
	// it simply was not listening to while down.
	for i := range r.lastHeard[id] {
		r.lastHeard[id][i] = now
	}
}

// heartbeat reschedules itself, then sends keep-alives from id to its
// current overlay neighbors (children and parents both, so each side can
// detect the other): children ascending, then the parents that are not
// also children, ascending — the arrivals' insertion order.
func (r *layer) heartbeat(now sim.Time, id, _ repository.ID) {
	r.beat(now+r.cfg.Heartbeat, id, 0)
	if r.dead[id] {
		return
	}
	r.peers = r.o.AppendChildren(r.peers[:0], id)
	kids, q := len(r.peers), r.o.Node(id)
	r.peers = r.o.AppendParents(r.peers, id)
	for i, nb := range r.peers {
		if i >= kids && q.HasChild(nb) {
			continue
		}
		r.res.Heartbeats++
		r.heard(now+r.o.Net.Delay[id][nb], nb, id)
	}
}

// heartbeatArrived resets nb's silence clock for the sender.
func (r *layer) heartbeatArrived(now sim.Time, nb, from repository.ID) {
	if !r.dead[nb] {
		r.lastHeard[nb][from] = now
	}
}

// watchdog is the per-repository detection pass: declare silent parents
// dead and re-home their feeds, drop silent children, retry orphaned
// feeds. It reschedules itself every heartbeat interval.
func (r *layer) watchdog(now sim.Time, id, _ repository.ID) {
	r.watch(now+r.cfg.Heartbeat, id, 0)
	if r.dead[id] {
		return
	}
	window := r.cfg.Window()
	q := r.o.Node(id)

	r.peers = r.o.AppendParents(r.peers[:0], id)
	for _, pid := range r.peers {
		if now-r.lastHeard[id][pid] < window {
			continue
		}
		r.res.Detections++
		r.rehomeFrom(now, q, pid)
	}
	r.peers = r.o.AppendChildren(r.peers[:0], id)
	for _, cid := range r.peers {
		if now-r.lastHeard[id][cid] < window {
			continue
		}
		// A silent child gets its push connection dropped, freeing the
		// slot for re-homing repairs elsewhere. If it was merely slow it
		// re-homes itself onto a backup when it notices the silence.
		q.DropDependent(cid)
		r.res.ChildDrops++
	}
	if pending := r.orphans[id]; len(pending) > 0 {
		items := make([]string, 0, len(pending))
		for x := range pending {
			items = append(items, x)
		}
		sort.Strings(items)
		for _, x := range items {
			r.rehomeFeed(now, q, x, pending[x])
		}
	}
}

// rehomeFrom re-homes every feed dependent q receives from the (detected
// dead) parent pid. The parent's crash time rides along so recovery
// latency is measured crash-to-re-home, however many retries that takes.
func (r *layer) rehomeFrom(now sim.Time, q *repository.Repository, pid repository.ID) {
	items := make([]string, 0, len(q.Parents))
	for x, p := range q.Parents {
		if p == pid {
			items = append(items, x)
		}
	}
	sort.Strings(items)
	r.o.Node(pid).DropDependent(q.ID)
	if q.Liaison == pid {
		q.Liaison = repository.NoID
	}
	var crashed sim.Time
	if r.dead[pid] {
		crashed = r.crashedAt[pid]
	}
	for _, x := range items {
		delete(q.Parents, x)
		r.rehomeFeed(now, q, x, crashed)
	}
}

// rehomeFeed re-establishes q's feed for item x: first live precomputed
// backup with capacity, then a full re-ranking, orphaning the feed for a
// later watchdog retry when nothing has room. On success the new parent
// immediately pushes its current copy so the dependent converges without
// waiting for the next source tick. crashed is the causing crash's time
// (0 when not crash-induced); a recovery-latency sample is recorded only
// here, when the feed actually lands on a live parent.
func (r *layer) rehomeFeed(now sim.Time, q *repository.Repository, x string, crashed sim.Time) {
	var parent repository.ID = repository.NoID
	var sub map[repository.ID]bool
	for _, b := range r.backups[q.ID] {
		if r.dead[b] {
			continue
		}
		if sub == nil {
			sub = r.o.Subtree(q.ID) // once per repair; attempts don't rewire
		}
		if err := r.lela.AdoptFeed(r.o, r.o.Node(b), q, x, sub); err == nil {
			parent = b
			break
		}
	}
	if parent == repository.NoID {
		pid, err := r.lela.Rehome(r.o, q, x, r.dead)
		if err != nil {
			if r.orphans[q.ID] == nil {
				r.orphans[q.ID] = make(map[string]sim.Time)
			}
			if _, seen := r.orphans[q.ID][x]; !seen {
				r.orphans[q.ID][x] = crashed
				r.res.Orphaned++
			}
			return
		}
		parent = pid
	}
	delete(r.orphans[q.ID], x)
	r.res.Rehomed++
	if crashed > 0 {
		sample := now - crashed
		r.recoverySum += sample
		r.res.RecoverySamples++
		if sample > r.res.MaxRecovery {
			r.res.MaxRecovery = sample
		}
	}
	// The adoption handshake counts as hearing from the new parent —
	// without this the stale silence clock could instantly "detect" it.
	r.lastHeard[q.ID][parent] = now
	r.lastHeard[parent][q.ID] = now
	// Sync push: the new parent ships its current copy, re-seeding the
	// edge's filter state, through the normal cost model.
	v, ok := r.values[parent][x]
	if !ok {
		v = r.values[repository.SourceID][x]
	}
	r.loop.Resync(now, parent, q.ID, x, v)
}
