package serve

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"d3t/internal/coherency"
	"d3t/internal/netsim"
	"d3t/internal/place"
	"d3t/internal/repository"
	"d3t/internal/resilience"
	"d3t/internal/sim"
)

// maxWatch is the longest watch list a session can hold (wLen is 16-bit).
const maxWatch = 1<<16 - 1

// watchRef addresses one watch entry: shard index + index into the
// shard's flat watch arrays.
type watchRef struct {
	sh uint32
	wi uint32
}

// shard holds the struct-of-arrays session state of one shard. All
// per-watch arrays are parallel; a session's watches occupy
// [wOff[i], wOff[i]+wLen[i]) in item-sorted order.
type shard struct {
	// Per-session scalars.
	hash   []uint32 // FNV-1a of the session name (ring key)
	home   []int32
	repo   []int32  // current repository id, or -1 detached
	seq    []uint64 // attach sequence on the current repository
	orphan []bool
	wOff   []uint32
	wLen   []uint16

	// Per-watch subscription and filter state.
	wItem   []uint32
	wTol    []coherency.Requirement
	wHave   []float64
	wSeeded []bool

	// Per-watch fidelity meter (the source copy is global in Fleet.src).
	wInViol   []bool
	wAttached []bool
	wLast     []sim.Time
	wSpan     []sim.Time
	wViol     []sim.Time

	// wPos is the watch's position in its current delivery postings
	// slice (valid while attached), maintained for O(1) swap-delete.
	wPos []uint32

	// wOwner is the index of the query the watch feeds. Only the query
	// shard carries it (AttachQueries appends it); plain shards leave it
	// nil, so their footprint and delivery loop know nothing of queries.
	wOwner []uint32
}

// rosterEntry records one admission on a repository, in attach order.
// The entry is stale (the session has since left) unless the session's
// current repo and seq still match.
type rosterEntry struct {
	h   uint64
	seq uint64
}

// event is one scheduled churn action (sim time).
type event struct {
	at     sim.Time
	idx    int
	depart bool
}

// named is a name-keyed session: its handle and whether admission
// skipped its nearest repository.
type named struct {
	h          uint64
	redirected bool
}

// Fleet is the session store of one run. It implements the dissemination
// and resilience run observers: source ticks keep every session's
// reference signal current, repository deliveries fan out to that
// repository's sessions through the per-client filter, crashes migrate
// the dead repository's sessions, and churn departures and arrivals
// interleave with all of it in simulation order.
//
// A Fleet is single-threaded, like the simulation engine driving it:
// AttachAll / Populate / AttachQueries the sessions, DeriveNeeds, Seed
// the initial values once the overlay is built, run the simulation with
// the fleet as its observer, then read Finalize and FinalizeQueries.
type Fleet struct {
	net   *netsim.Network
	repos []*repository.Repository
	opts  Options
	ix    *place.Index

	itemID   map[string]uint32
	itemName []string
	src      []float64 // current source value per item

	// Per-repository serving state: current copies, liveness, load,
	// attach rosters, attach-sequence counters.
	values  [][]float64
	valSet  [][]bool
	alive   []bool
	sessCnt []int
	roster  [][]rosterEntry
	seqs    []uint64

	// byItem[item] is the static all-watchers postings list (source
	// metering); post[shard][repo-1][item] the attached-watchers list
	// (delivery fan-out); qByItem[item] the query shard's watch entries
	// for the item (truth evaluators).
	byItem  [][]watchRef
	post    [][][][]watchRef
	qByItem [][]uint32

	// shards[:opts.Shards] hold clients and synthetic sessions by name
	// hash; the one extra shard holds the query input sessions, session
	// i of it feeding queries[i]. Query sessions are admitted, filtered,
	// metered and migrated like any other, but stay out of order, so
	// client-facing stats and the churn plan's indexing are client-only.
	shards  []shard
	queries []*QuerySession
	// order is every client and synthetic session in admission order
	// (the churn plan's index space and the fidelity aggregation order).
	order  []uint64
	byName map[string]named

	events []event
	next   int

	stats Stats
}

// NewFleet builds an empty fleet over the repository population (ids
// 1..n matching the network's endpoints). The fleet keeps the pointers,
// so needs derived and serving sets augmented later are visible to
// admission and migration. Item catalogue and sessions are added by
// AttachAll, Populate and AttachQueries.
func NewFleet(net *netsim.Network, repos []*repository.Repository, opts Options) (*Fleet, error) {
	if opts.Shards <= 0 {
		opts.Shards = 8
	}
	if opts.Interval <= 0 {
		opts.Interval = 1
	}
	f := &Fleet{
		net:     net,
		repos:   repos,
		opts:    opts,
		itemID:  make(map[string]uint32),
		values:  make([][]float64, len(repos)),
		valSet:  make([][]bool, len(repos)),
		alive:   make([]bool, len(repos)),
		sessCnt: make([]int, len(repos)),
		roster:  make([][]rosterEntry, len(repos)),
		seqs:    make([]uint64, len(repos)),
		shards:  make([]shard, opts.Shards+1),
		byName:  make(map[string]named),
	}
	for i, r := range repos {
		if r.ID != repository.ID(i+1) {
			return nil, fmt.Errorf("serve: repository %d at index %d (want contiguous ids from 1)", r.ID, i)
		}
		f.alive[i] = true
	}
	f.ix = place.New(net, len(repos), place.Options{RingSlots: opts.RingSlots, RingAfter: opts.RingAfter})
	f.post = make([][][][]watchRef, len(f.shards))
	for s := range f.post {
		f.post[s] = make([][][]watchRef, len(repos))
	}
	if opts.Plan != nil {
		for _, ft := range opts.Plan.Faults {
			idx := int(ft.Node) - 1
			f.events = append(f.events, event{at: ft.At, idx: idx, depart: true})
			if ft.RejoinAt > 0 {
				f.events = append(f.events, event{at: ft.RejoinAt, idx: idx})
			}
		}
		sort.SliceStable(f.events, func(i, j int) bool { return f.events[i].at < f.events[j].at })
	}
	f.stats.Shards = opts.Shards
	return f, nil
}

// Index exposes the placement index (test instrumentation).
func (f *Fleet) Index() *place.Index { return f.ix }

// qsh is the query shard's index.
func (f *Fleet) qsh() uint32 { return uint32(f.opts.Shards) }

// item interns an item name.
func (f *Fleet) item(name string) uint32 {
	id, ok := f.itemID[name]
	if !ok {
		id = uint32(len(f.itemName))
		f.itemID[name] = id
		f.itemName = append(f.itemName, name)
		f.src = append(f.src, 0)
		f.byItem = append(f.byItem, nil)
		f.qByItem = append(f.qByItem, nil)
		for r := range f.values {
			f.values[r] = append(f.values[r], 0)
			f.valSet[r] = append(f.valSet[r], false)
		}
		for s := range f.post {
			for r := range f.post[s] {
				f.post[s][r] = append(f.post[s][r], nil)
			}
		}
	}
	return id
}

// handle packs (shard, index); split unpacks it.
func handle(sh, idx uint32) uint64 { return uint64(sh)<<32 | uint64(idx) }

func split(h uint64) (sh, idx uint32) { return uint32(h >> 32), uint32(h) }

// checkWatch rejects a watch list longer than a session's 16-bit extent
// can record, before any of it is appended.
func checkWatch(name string, n int) error {
	if n > maxWatch {
		return fmt.Errorf("serve: session %q watches %d items, more than the %d a session can hold", name, n, maxWatch)
	}
	return nil
}

// create appends one detached session to the shard and returns the
// handle. items must be sorted by name and no longer than maxWatch; tols
// parallel.
func (f *Fleet) create(shi, hash uint32, home repository.ID, items []uint32, tols []coherency.Requirement) uint64 {
	sh := &f.shards[shi]
	idx := uint32(len(sh.hash))
	sh.hash = append(sh.hash, hash)
	sh.home = append(sh.home, int32(home))
	sh.repo = append(sh.repo, -1)
	sh.seq = append(sh.seq, 0)
	sh.orphan = append(sh.orphan, false)
	sh.wOff = append(sh.wOff, uint32(len(sh.wItem)))
	sh.wLen = append(sh.wLen, uint16(len(items)))
	for k, it := range items {
		wi := uint32(len(sh.wItem))
		sh.wItem = append(sh.wItem, it)
		sh.wTol = append(sh.wTol, tols[k])
		sh.wHave = append(sh.wHave, 0)
		sh.wSeeded = append(sh.wSeeded, false)
		sh.wInViol = append(sh.wInViol, false)
		sh.wAttached = append(sh.wAttached, false)
		sh.wLast = append(sh.wLast, 0)
		sh.wSpan = append(sh.wSpan, 0)
		sh.wViol = append(sh.wViol, 0)
		sh.wPos = append(sh.wPos, 0)
		f.byItem[it] = append(f.byItem[it], watchRef{sh: shi, wi: wi})
	}
	return handle(shi, idx)
}

// watches returns the session's watch extent [off, end).
func (sh *shard) watches(i uint32) (off, end uint32) {
	return sh.wOff[i], sh.wOff[i] + uint32(sh.wLen[i])
}

// advance accounts [wLast, now) against the watch's current meter state.
func (sh *shard) advance(wi uint32, now sim.Time) {
	if sh.wAttached[wi] {
		d := now - sh.wLast[wi]
		sh.wSpan[wi] += d
		if sh.wInViol[wi] {
			sh.wViol[wi] += d
		}
	}
	sh.wLast[wi] = now
}

// fidelity returns the watch's attached-time fidelity up to now, and
// false when it never observed any attached time.
func (sh *shard) fidelity(wi uint32, now sim.Time) (float64, bool) {
	return observed(sh.wSpan[wi], sh.wViol[wi], sh.wLast[wi], sh.wAttached[wi], sh.wInViol[wi], now)
}

// observed closes a meter's integrals at now — the open interval since
// last counts while attached — and returns the fraction of attached time
// spent in tolerance, or false when no attached time was ever observed.
func observed(span, viol, last sim.Time, attached, inViol bool, now sim.Time) (float64, bool) {
	if attached && now > last {
		span += now - last
		if inViol {
			viol += now - last
		}
	}
	if span <= 0 {
		return 1, false
	}
	return 1 - float64(viol)/float64(span), true
}

// deliverWatch records a value delivered to the client: advance, move
// the client copy, refresh the violation flag against the global source
// value.
func (f *Fleet) deliverWatch(sh *shard, wi uint32, now sim.Time, v float64) {
	sh.advance(wi, now)
	sh.wHave[wi] = v
	sh.wSeeded[wi] = true
	sh.wInViol[wi] = sh.wTol[wi].Violated(f.src[sh.wItem[wi]], v)
}

// canServe reports whether the repository serves every watched item of
// the session at least as stringently as demanded (the source serves any
// tolerance).
func (f *Fleet) canServe(id repository.ID, sh *shard, i uint32) bool {
	r := f.repos[id-1]
	if r.IsSource() {
		return true
	}
	for wi, end := sh.watches(i); wi < end; wi++ {
		own, ok := r.Serving[f.itemName[sh.wItem[wi]]]
		if !ok || !own.AtLeastAsStringentAs(sh.wTol[wi]) {
			return false
		}
	}
	return true
}

// Alive, HasRoom and Load implement place.State.
func (f *Fleet) Alive(id repository.ID) bool { return f.alive[id-1] }
func (f *Fleet) HasRoom(id repository.ID) bool {
	return f.opts.Cap <= 0 || f.sessCnt[id-1] < f.opts.Cap
}
func (f *Fleet) Load(id repository.ID) int { return f.sessCnt[id-1] }

// place asks the shared placement index for the repository to serve the
// session, or NoID when none qualifies. Initial placement (before
// repository needs exist) requires only liveness and cap room, falling
// back to the least-loaded live repository when every one is full; later
// placements (migration, re-arrival) first require the candidate to
// serve every watched item at the client's tolerance, then drop that
// requirement rather than strand the session.
func (f *Fleet) place(sh *shard, i uint32, initial bool) repository.ID {
	var serves func(repository.ID) bool
	if !initial {
		serves = func(id repository.ID) bool { return f.canServe(id, sh, i) }
	}
	id, _ := f.ix.Place(f, repository.ID(sh.home[i]), repository.ID(sh.repo[i]), sh.hash[i], serves, initial)
	return id
}

// attach wires the session onto the repository: meters resume, postings
// gain its watches, and the repository resyncs it to its current copies
// in item-sorted order, skipping items it does not hold and values the
// session provably already has (a no-op at initial attachment, before
// Seed).
func (f *Fleet) attach(h uint64, id repository.ID, now sim.Time) {
	shi, i := split(h)
	sh := &f.shards[shi]
	sh.repo[i] = int32(id)
	sh.orphan[i] = false
	sh.seq[i] = f.seqs[id-1]
	f.seqs[id-1]++
	f.sessCnt[id-1]++
	f.roster[id-1] = append(f.roster[id-1], rosterEntry{h: h, seq: sh.seq[i]})
	var qs *QuerySession
	if shi == f.qsh() {
		qs = f.queries[i]
		qs.attached = true
		qs.gate(now)
	}
	o := f.opts.Obs.Node(id)
	o.Admit1()
	resyncs := 0
	posts := f.post[shi][id-1]
	vals, set := f.values[id-1], f.valSet[id-1]
	for wi, end := sh.watches(i); wi < end; wi++ {
		sh.advance(wi, now)
		sh.wAttached[wi] = true
		it := sh.wItem[wi]
		sh.wPos[wi] = uint32(len(posts[it]))
		posts[it] = append(posts[it], watchRef{sh: shi, wi: wi})
		if !set[it] {
			continue
		}
		v := vals[it]
		if sh.wSeeded[wi] && sh.wHave[wi] == v {
			continue
		}
		f.deliverWatch(sh, wi, now, v)
		resyncs++
		if qs != nil {
			f.queryDeliver(qs, now, it, v, true)
		}
	}
	if qs == nil {
		f.stats.Resyncs += resyncs
	}
	o.Resync(resyncs)
}

// detach unwires the session from its repository: postings lose its
// watches (swap-delete via the tracked positions), meters pause; the
// client's copies are kept (a returning session resyncs before it counts
// again). With dead true the repository's postings are about to be
// cleared wholesale (crash migration), so individual removal is skipped.
func (f *Fleet) detach(h uint64, now sim.Time, dead bool) {
	shi, i := split(h)
	sh := &f.shards[shi]
	id := repository.ID(sh.repo[i])
	if id <= 0 {
		return
	}
	sh.repo[i] = -1
	f.sessCnt[id-1]--
	posts := f.post[shi][id-1]
	for wi, end := sh.watches(i); wi < end; wi++ {
		sh.advance(wi, now)
		sh.wAttached[wi] = false
		if dead {
			continue
		}
		it := sh.wItem[wi]
		lst := posts[it]
		pos := sh.wPos[wi]
		last := lst[len(lst)-1]
		lst[pos] = last
		f.shards[last.sh].wPos[last.wi] = pos
		posts[it] = lst[:len(lst)-1]
	}
	if shi == f.qsh() {
		qs := f.queries[i]
		qs.attached = false
		qs.gate(now)
	}
}

// admit creates one client or synthetic session in its hash shard,
// enrolls it in the population order and — unless it is created
// detached, outside the system (a flash-crowd member awaiting its
// arrival event) — places it. A placement other than the nearest
// repository is a redirect, charged to the repository that turned the
// session away with the admission walk's cost as its latency: a round
// trip to every candidate tried, the target included.
func (f *Fleet) admit(hash uint32, home repository.ID, items []uint32, tols []coherency.Requirement, detached bool) (n named, ok bool) {
	n.h = f.create(hash%f.qsh(), hash, home, items, tols)
	f.order = append(f.order, n.h)
	f.stats.Sessions++
	if detached {
		return n, true
	}
	target := f.admitPlace(n.h)
	if target == repository.NoID {
		return n, false
	}
	order := f.ix.Order(home)
	if target != order[0] {
		n.redirected = true
		f.stats.Redirects++
		if on := f.opts.Obs.Node(order[0]); on != nil {
			var lat sim.Time
			for _, cand := range order {
				lat += 2 * f.net.Delay[home][cand]
				if cand == target {
					break
				}
			}
			on.Redirect1()
			on.ObserveRedirectLatency(int64(lat))
		}
	}
	return n, true
}

// admitPlace initially places a created session and attaches it at
// time 0, returning NoID when no repository can take it.
func (f *Fleet) admitPlace(h uint64) repository.ID {
	shi, i := split(h)
	target := f.place(&f.shards[shi], i, true)
	if target != repository.NoID {
		f.attach(h, target, 0)
	}
	return target
}

// sortedWants splits a watch list into interned items and tolerances in
// name order — the watch layout's (and so the resync's) order.
func (f *Fleet) sortedWants(wants map[string]coherency.Requirement) ([]uint32, []coherency.Requirement) {
	names := make([]string, 0, len(wants))
	for x := range wants {
		names = append(names, x)
	}
	sort.Strings(names)
	items := make([]uint32, len(names))
	tols := make([]coherency.Requirement, len(names))
	for k, x := range names {
		items[k] = f.item(x)
		tols[k] = wants[x]
	}
	return items, tols
}

// AttachAll admits a named client population in order. Each client's
// Repo (its home endpoint as generated) is rewritten to its placement.
func (f *Fleet) AttachAll(clients []*repository.Client) error {
	for _, c := range clients {
		if err := c.Validate(); err != nil {
			return err
		}
		if int(c.Repo) > len(f.repos) {
			return fmt.Errorf("serve: client %q homed at unknown repository %d", c.Name, c.Repo)
		}
		if _, dup := f.byName[c.Name]; dup {
			return fmt.Errorf("serve: duplicate session %q", c.Name)
		}
		if err := checkWatch(c.Name, len(c.Wants)); err != nil {
			return err
		}
		items, tols := f.sortedWants(c.Wants)
		n, ok := f.admit(place.Key(c.Name), c.Repo, items, tols, false)
		if !ok {
			return fmt.Errorf("serve: no repository to place client %q on", c.Name)
		}
		f.byName[c.Name] = n
		shi, i := split(n.h)
		c.Repo = repository.ID(f.shards[shi].repo[i])
	}
	return nil
}

// DeriveNeeds computes every repository's data and coherency needs from
// the registered sessions — clients, synthetic sessions and query input
// sessions alike — as repository.DeriveNeeds does from a client slice:
// the most stringent tolerance any of a repository's sessions demands
// (Section 1.2). Attached sessions count against their serving
// repository; detached ones (scenario crowds created outside the system)
// against their home endpoint, so the overlay is provisioned for the
// registered demand and a flash crowd's hot item is being disseminated
// before the burst arrives.
func (f *Fleet) DeriveNeeds() {
	for _, r := range f.repos {
		r.Needs = make(map[string]coherency.Requirement)
		r.Serving = make(map[string]coherency.Requirement)
	}
	for _, h := range f.order {
		f.need(split(h))
	}
	for i := range f.queries {
		f.need(f.qsh(), uint32(i))
	}
}

// need folds one session's watch list into its repository's needs.
func (f *Fleet) need(shi, i uint32) {
	sh := &f.shards[shi]
	at := sh.repo[i]
	if at < 0 {
		at = sh.home[i]
	}
	r := f.repos[at-1]
	for wi, end := sh.watches(i); wi < end; wi++ {
		item := f.itemName[sh.wItem[wi]]
		tol := sh.wTol[wi]
		cur, exists := r.Needs[item]
		if !exists || tol.AtLeastAsStringentAs(cur) {
			r.Needs[item] = tol
			r.Serving[item] = tol
		}
	}
}

// Seed initializes the source signal, every repository's copy of the
// items it holds, and every session's copy to the items' initial values,
// as if all clients joined fully synchronized. Call it after the overlay
// is built (serving sets are final) and before the run. Sessions
// attached after Seed start unsynchronized: their admission resync
// delivers the seeded copies.
func (f *Fleet) Seed(initial map[string]float64) {
	for x, v := range initial {
		id := f.item(x)
		f.src[id] = v
		for r, repo := range f.repos {
			if _, holds := repo.Serving[x]; holds || repo.IsSource() {
				f.values[r][id] = v
				f.valSet[r][id] = true
			}
		}
	}
	for s := range f.shards {
		sh := &f.shards[s]
		for wi := range sh.wItem {
			if v, ok := initial[f.itemName[sh.wItem[wi]]]; ok {
				sh.wHave[wi] = v
				sh.wSeeded[wi] = true
				sh.wInViol[wi] = sh.wTol[wi].Violated(v, v)
			}
		}
	}
	f.seedQueries(initial)
}

// catchUp executes every scheduled churn event due at or before now.
func (f *Fleet) catchUp(now sim.Time) {
	for f.next < len(f.events) && f.events[f.next].at <= now {
		e := f.events[f.next]
		f.next++
		if e.idx < 0 || e.idx >= len(f.order) {
			continue // plan sized for a larger population
		}
		h := f.order[e.idx]
		shi, i := split(h)
		sh := &f.shards[shi]
		if e.depart {
			if sh.repo[i] < 0 && !sh.orphan[i] {
				continue // already gone
			}
			f.detach(h, e.at, false)
			sh.orphan[i] = false
			f.stats.Departures++
			continue
		}
		if sh.repo[i] >= 0 || sh.orphan[i] {
			continue // already back (or waiting to be)
		}
		f.stats.Arrivals++
		if target := f.place(sh, i, false); target != repository.NoID {
			f.attach(h, target, e.at)
		} else {
			sh.orphan[i] = true
			f.stats.Orphaned++
		}
	}
}

// ObserveSource keeps every watching session's reference signal current:
// the global source copy moves once, and each watcher's meter advances
// and refreshes its violation flag — attached or not.
func (f *Fleet) ObserveSource(now sim.Time, item string, v float64) {
	f.catchUp(now)
	id, ok := f.itemID[item]
	if !ok {
		return
	}
	f.src[id] = v
	for _, ref := range f.byItem[id] {
		sh := &f.shards[ref.sh]
		sh.advance(ref.wi, now)
		sh.wInViol[ref.wi] = sh.wTol[ref.wi].Violated(v, sh.wHave[ref.wi])
	}
	f.observeQuerySource(now, id, v)
}

// ObserveDeliver fans a repository's delivery out to its attached
// watchers through the per-client coherency filter — the same Eqs. 3 and
// 7 test the tree applies between repositories, applied once more at the
// leaf with the repository's own serving tolerance as cSelf, and the
// first-push rule for unseeded edges. Eq. 3 alone would let a client
// silently drift by up to its tolerance *plus* the repository's (the
// Section 5 missed-update problem, at the client); Eq. 7 forwards the
// risky updates too, so a coherent repository always implies coherent
// clients. Filtered decisions are the fan-out work the serving layer
// saves. The steady-state path allocates nothing.
func (f *Fleet) ObserveDeliver(now sim.Time, repo repository.ID, item string, v float64) {
	f.catchUp(now)
	o := f.opts.Obs.Node(repo)
	o.Apply1()
	id, ok := f.itemID[item]
	if !ok {
		return
	}
	f.values[repo-1][id] = v
	f.valSet[repo-1][id] = true
	r := f.repos[repo-1]
	var cSelf coherency.Requirement
	if !r.IsSource() {
		cSelf, _ = r.ServingTolerance(item)
	}
	var delivered, filtered int
	for s := uint32(0); s < f.qsh(); s++ {
		d, fl := f.deliverShard(s, repo, id, now, v, cSelf)
		delivered += d
		filtered += fl
	}
	f.stats.Delivered += uint64(delivered)
	f.stats.Filtered += uint64(filtered)
	qd, qf := f.deliverQueries(repo, id, now, v, cSelf)
	o.SessPass(delivered+qd, filtered+qf)
}

// deliverShard filters one shard's postings for (repo, item).
func (f *Fleet) deliverShard(shi uint32, repo repository.ID, id uint32, now sim.Time, v float64, cSelf coherency.Requirement) (delivered, filtered int) {
	sh := &f.shards[shi]
	src := f.src[id]
	for _, ref := range f.post[shi][repo-1][id] {
		wi := ref.wi
		if sh.wSeeded[wi] && !coherency.ShouldForward(v, sh.wHave[wi], sh.wTol[wi], cSelf) {
			filtered++
			continue
		}
		sh.advance(wi, now)
		sh.wHave[wi] = v
		sh.wSeeded[wi] = true
		sh.wInViol[wi] = sh.wTol[wi].Violated(src, v)
		delivered++
	}
	return delivered, filtered
}

// migrate re-homes a detached session onto the nearest live alternative
// (preferring ones already serving its items), reporting false when
// none has room.
func (f *Fleet) migrate(h uint64, now sim.Time) bool {
	shi, i := split(h)
	target := f.place(&f.shards[shi], i, false)
	if target == repository.NoID {
		return false
	}
	f.attach(h, target, now)
	f.stats.Migrations++
	f.opts.Obs.Node(target).Migrate1()
	return true
}

// ObserveCrash migrates the dead repository's sessions, in the order
// they attached to it (so capacity contention resolves exactly as it
// arrived), resyncing each to its new repository's current copy.
// Sessions that find no room are orphaned and retry when a repository
// rejoins.
func (f *Fleet) ObserveCrash(now sim.Time, id repository.ID) {
	f.catchUp(now)
	f.alive[id-1] = false
	for _, e := range f.roster[id-1] {
		shi, i := split(e.h)
		sh := &f.shards[shi]
		if repository.ID(sh.repo[i]) != id || sh.seq[i] != e.seq {
			continue // stale roster entry: the session has since left
		}
		f.detach(e.h, now, true)
		if !f.migrate(e.h, now) {
			sh.orphan[i] = true
			f.stats.Orphaned++
		}
	}
	f.roster[id-1] = f.roster[id-1][:0]
	// The dead repository's delivery postings are cleared wholesale.
	for s := range f.post {
		posts := f.post[s][id-1]
		for it := range posts {
			posts[it] = posts[it][:0]
		}
	}
}

// ObserveRejoin marks the repository live again and retries orphaned
// sessions — the population in admission order, then the queries —
// against the enlarged candidate set.
func (f *Fleet) ObserveRejoin(now sim.Time, id repository.ID) {
	f.catchUp(now)
	f.alive[id-1] = true
	retry := func(h uint64) {
		shi, i := split(h)
		if f.shards[shi].orphan[i] {
			f.migrate(h, now)
		}
	}
	for _, h := range f.order {
		retry(h)
	}
	for i := range f.queries {
		retry(handle(f.qsh(), uint32(i)))
	}
}

// Attached returns how many sessions are currently attached.
func (f *Fleet) Attached() int {
	n := 0
	for _, c := range f.sessCnt {
		n += c
	}
	return n
}

// fidelity returns one session's client-observed fidelity at now: the
// mean over watched items of the fraction of attached time the client's
// copy was within its own tolerance of the source. A session that was
// never attached observed nothing and reports 1 (vacuous).
func (f *Fleet) fidelity(h uint64, now sim.Time) float64 {
	shi, i := split(h)
	sh := &f.shards[shi]
	var sum float64
	var n int
	for wi, end := sh.watches(i); wi < end; wi++ {
		if fid, ok := sh.fidelity(wi, now); ok {
			sum += fid
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// Finalize flushes churn through the horizon and returns the run's
// statistics, including the client-observed fidelity aggregates and the
// measured bytes/session footprint.
func (f *Fleet) Finalize(horizon sim.Time) Stats {
	f.catchUp(horizon)
	st := f.stats
	st.MeanFidelity, st.WorstFidelity = 1, 1
	if n := len(f.order); n > 0 {
		var sum float64
		worst := 1.0
		for _, h := range f.order {
			fid := f.fidelity(h, horizon)
			sum += fid
			if fid < worst {
				worst = fid
			}
		}
		st.MeanFidelity = sum / float64(n)
		st.WorstFidelity = worst
		st.BytesPerSession = float64(f.Footprint()) / float64(n)
	}
	st.LossPercent = 100 * (1 - st.MeanFidelity)
	return st
}

// Footprint returns the resident session-state bytes: every per-session
// and per-watch array plus postings and rosters, by capacity. Fixed
// per-run state (item tables, repository value copies) is excluded — it
// does not grow with the population.
func (f *Fleet) Footprint() int64 {
	var b int64
	for s := range f.shards {
		sh := &f.shards[s]
		b += int64(cap(sh.hash))*4 + int64(cap(sh.home))*4 + int64(cap(sh.repo))*4 +
			int64(cap(sh.seq))*8 + int64(cap(sh.orphan)) + int64(cap(sh.wOff))*4 + int64(cap(sh.wLen))*2
		b += int64(cap(sh.wItem))*4 + int64(cap(sh.wTol))*8 + int64(cap(sh.wHave))*8 +
			int64(cap(sh.wSeeded)) + int64(cap(sh.wInViol)) + int64(cap(sh.wAttached)) +
			int64(cap(sh.wLast))*8 + int64(cap(sh.wSpan))*8 + int64(cap(sh.wViol))*8 +
			int64(cap(sh.wPos))*4 + int64(cap(sh.wOwner))*4
		for r := range f.post[s] {
			for it := range f.post[s][r] {
				b += int64(cap(f.post[s][r][it])) * 8
			}
		}
	}
	for it := range f.byItem {
		b += int64(cap(f.byItem[it]))*8 + int64(cap(f.qByItem[it]))*4
	}
	for r := range f.roster {
		b += int64(cap(f.roster[r])) * 16
	}
	b += int64(cap(f.order)) * 8
	return b
}

// Synthetic parameterizes a compact synthetic population — the same
// distribution as repository.GenerateClients (home chosen uniformly,
// 1..2·ItemsPerClient−1 items from a partial shuffle, the paper's
// stringent/loose tolerance mix) without materializing a Client object
// per session.
type Synthetic struct {
	// Sessions is the population size.
	Sessions int
	// Items is the item catalogue.
	Items []string
	// ItemsPerClient is the mean watch-list size (default 3).
	ItemsPerClient int
	// StringentFrac is the probability a tolerance is stringent
	// ([0.01, 0.099] vs [0.1, 0.999]).
	StringentFrac float64
	// Seed makes generation deterministic.
	Seed int64
}

// Populate generates and admits a synthetic population, and schedules
// the fleet's scenario over it. Sessions marked hot by the scenario
// watch only the hot item, Items[0]; sessions marked start-detached are
// created outside the system and arrive with their scenario event. Names
// are not retained (the hash is computed from the generated name and
// discarded), keeping the per-session footprint flat.
func (f *Fleet) Populate(cfg Synthetic) error {
	if cfg.Sessions <= 0 || len(cfg.Items) == 0 {
		return fmt.Errorf("serve: synthetic population needs sessions and items")
	}
	if cfg.ItemsPerClient <= 0 {
		cfg.ItemsPerClient = 3
	}
	if err := checkWatch("synthetic", min(2*cfg.ItemsPerClient-1, len(cfg.Items))); err != nil {
		return err
	}
	ids := make([]uint32, len(cfg.Items))
	for k, x := range cfg.Items {
		ids[k] = f.item(x)
	}
	sc := f.opts.Scenario
	if sc != nil {
		// Scenario sessions are indexed within this population, which
		// follows whatever was admitted before it.
		base := len(f.order)
		for _, e := range sc.Events {
			f.events = append(f.events, event{at: sim.Time(e.Tick) * f.opts.Interval, idx: base + e.Session, depart: e.Depart})
		}
		sort.SliceStable(f.events, func(i, j int) bool { return f.events[i].at < f.events[j].at })
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	// Scratch state reused across sessions: a partial Fisher-Yates over
	// item positions.
	pick := make([]int, len(cfg.Items))
	for k := range pick {
		pick[k] = k
	}
	items := make([]uint32, 0, 2*cfg.ItemsPerClient)
	tols := make([]coherency.Requirement, 0, 2*cfg.ItemsPerClient)
	name := make([]byte, 0, 24)
	drawTol := func() coherency.Requirement {
		if r.Float64() < cfg.StringentFrac {
			return coherency.Requirement(0.01 + r.Float64()*(0.099-0.01))
		}
		return coherency.Requirement(0.1 + r.Float64()*(0.999-0.1))
	}
	for i := 0; i < cfg.Sessions; i++ {
		home := repository.ID(1 + r.Intn(len(f.repos)))
		items = items[:0]
		tols = tols[:0]
		isHot := sc != nil && i < len(sc.Hot) && sc.Hot[i]
		if isHot {
			items = append(items, ids[0])
			tols = append(tols, drawTol())
		} else {
			n := 1 + r.Intn(2*cfg.ItemsPerClient-1)
			if n > len(pick) {
				n = len(pick)
			}
			for j := 0; j < n; j++ {
				k := j + r.Intn(len(pick)-j)
				pick[j], pick[k] = pick[k], pick[j]
			}
			// The watch layout follows catalogue position, which is name
			// order for a name-sorted catalogue — as trace item sets are.
			sel := pick[:n]
			sort.Ints(sel)
			for _, p := range sel {
				items = append(items, ids[p])
				tols = append(tols, drawTol())
			}
		}
		name = strconv.AppendInt(append(name[:0], "vclient"...), int64(i), 10)
		detached := sc != nil && i < len(sc.StartDetached) && sc.StartDetached[i]
		if _, ok := f.admit(place.Key(string(name)), home, items, tols, detached); !ok {
			return fmt.Errorf("serve: no repository to place synthetic session %d on", i)
		}
	}
	return nil
}

// Interface conformance: the fleet observes both the plain and the
// resilient runners.
var _ resilience.Observer = (*Fleet)(nil)
