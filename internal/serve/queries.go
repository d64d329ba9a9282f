package serve

import (
	"fmt"

	"d3t/internal/coherency"
	"d3t/internal/place"
	"d3t/internal/query"
	"d3t/internal/repository"
	"d3t/internal/sim"
)

// QuerySession is one continuous derived-data query served by the fleet:
// an ordinary input session in the store's query shard (the query's items
// at the allocated per-input tolerance, placed/filtered/migrated exactly
// like a client) plus two incremental evaluators and a result fidelity
// meter.
//
// The *view* evaluator is fed by the deliveries the serving repository's
// per-client filter lets through — it is the result the client actually
// sees, and its eval/recompute counts are the numbers the cross-backend
// parity test compares. The *truth* evaluator is fed by the source signal
// directly; the result meter integrates |truth − published view| ≤ cQ
// over the session's attached lifetime, which is the end-to-end guarantee
// the tolerance allocation is supposed to buy.
type QuerySession struct {
	// Query is the query being served.
	Query query.Query

	f     *Fleet
	i     uint32 // the input session's index in the query shard
	truth *query.Eval
	view  *query.Eval
	// rm is the result meter (c = cQ): src the truth result, have the
	// client's copy — the last *published* view result (publication is
	// gated by the predicate on the view result).
	rm meter

	// attached mirrors the input session; predOpen tracks the filter
	// predicate against the truth result. The result meter observes only
	// while both hold — a departed client (or one whose predicate gates
	// the result off) is not owed the result.
	attached bool
	predOpen bool

	inputPushes  uint64 // input deliveries (client-side placement cost)
	resyncPushes uint64 // catch-up input deliveries
	resultPushes uint64 // published result changes (repo-side placement cost)
}

// Repo returns the repository currently serving the query's input
// session, or repository.NoID while detached.
func (qs *QuerySession) Repo() repository.ID {
	return repository.ID(qs.f.shards[qs.f.qsh()].repo[qs.i])
}

// Evals and Recomputes report the view evaluator's counters: input
// deliveries evaluated, and result recomputations (one per delivery once
// every input has a value). They depend only on the delivery sequence,
// so every backend serving the same update stream reports the same
// counts.
func (qs *QuerySession) Evals() uint64      { return qs.view.Evals() }
func (qs *QuerySession) Recomputes() uint64 { return qs.view.Recomputes() }

// Fidelity returns the result-level fidelity up to now: the fraction of
// observed time the published result was within cQ of the truth result.
func (qs *QuerySession) Fidelity(now sim.Time) float64 {
	f, _ := qs.rm.fidelity(now)
	return f
}

// InputFloor returns the union-bound fidelity floor the inputs imply:
// the result can only be out of tolerance while some input is out of
// its allocated tolerance, so result fidelity ≥ 1 − Σᵢ(1 − fᵢ)
// (clamped at 0). This is the provable side of the allocation argument,
// measured: the query-fidelity figure checks the result stays above it.
func (qs *QuerySession) InputFloor(now sim.Time) float64 {
	floor := 1.0
	sh := &qs.f.shards[qs.f.qsh()]
	for wi, end := sh.watches(qs.i); wi < end; wi++ {
		if f, ok := sh.fidelity(wi, now); ok {
			floor -= 1 - f
		}
	}
	if floor < 0 {
		return 0
	}
	return floor
}

// gate reconciles the result meter with the session/predicate state.
func (qs *QuerySession) gate(now sim.Time) {
	if want := qs.attached && qs.predOpen; want != qs.rm.attached {
		qs.rm.advance(now)
		qs.rm.attached = want
	}
}

// QueryOutcome is one query's end-of-run summary.
type QueryOutcome struct {
	Name string
	Spec string
	// Repo is the repository serving the query at the horizon (NoID if
	// detached).
	Repo repository.ID
	// Fidelity is the result-level fidelity; InputFloor the union-bound
	// floor the input fidelities imply (see QuerySession.InputFloor).
	Fidelity   float64
	InputFloor float64
	// Evals and Recomputes are the view evaluator's counters.
	Evals, Recomputes uint64
	// InputPushes and ResultPushes are the per-placement last-hop message
	// costs: client-side evaluation ships every input delivery,
	// repository-side evaluation ships only published result changes.
	// Resyncs counts catch-up input deliveries (admission, migration).
	InputPushes, ResultPushes, Resyncs uint64
}

// QueryStats aggregates the query layer's end-of-run outcomes.
type QueryStats struct {
	// Queries is the catalogue size.
	Queries int
	// Evals and Recomputes sum the view evaluators' counters.
	Evals, Recomputes uint64
	// InputPushes, ResultPushes and Resyncs sum the per-query message
	// tallies; Messages is the realized last-hop cost, charging each
	// query by its declared placement (repo: result pushes; client: input
	// pushes + resyncs).
	InputPushes, ResultPushes, Resyncs uint64
	Messages                           uint64
	// MeanFidelity and WorstFidelity aggregate result-level fidelity;
	// LossPercent is 100*(1-MeanFidelity). MeanInputFloor is the mean
	// union-bound floor — the provable guarantee the allocation bought.
	MeanFidelity   float64
	WorstFidelity  float64
	LossPercent    float64
	MeanInputFloor float64
	// PerQuery is the per-query detail, in catalogue order.
	PerQuery []QueryOutcome
}

// String renders the stats as a one-line summary.
func (s QueryStats) String() string {
	return fmt.Sprintf("queries=%d queryLoss=%.2f%% floor=%.4f evals=%d recomputes=%d msgs=%d",
		s.Queries, s.LossPercent, s.MeanInputFloor, s.Evals, s.Recomputes, s.Messages)
}

// qTick maps simulation time onto the query clock.
func (f *Fleet) qTick(now sim.Time) int64 { return int64(now / f.opts.Interval) }

// AttachQueries admits the fleet's query catalogue (Options.Queries):
// each query becomes an input session subscribed to its items at the
// allocated per-input tolerance, placed like a client homed at a
// repository chosen round-robin. DeriveNeeds folds the input sessions in,
// so the overlay provably serves every input at least as stringently as
// the allocation demands.
func (f *Fleet) AttachQueries() error {
	sh := &f.shards[f.qsh()]
	for i, q := range f.opts.Queries {
		if err := q.Validate(); err != nil {
			return err
		}
		if q.Name == "" {
			return fmt.Errorf("serve: query %d has no name", i)
		}
		if _, dup := f.byName[q.Name]; dup {
			return fmt.Errorf("serve: duplicate session %q", q.Name)
		}
		wants := q.Wants()
		if err := checkWatch(q.Name, len(wants)); err != nil {
			return err
		}
		items, tols := f.sortedWants(wants)
		qs := &QuerySession{
			Query:    q,
			f:        f,
			i:        uint32(len(f.queries)),
			truth:    query.NewEval(q),
			view:     query.NewEval(q),
			rm:       meter{c: coherency.Requirement(q.Tolerance)},
			predOpen: q.Pred == nil,
		}
		f.queries = append(f.queries, qs)
		h := f.create(f.qsh(), place.Key(q.Name), repository.ID(1+i%len(f.repos)), items, tols)
		for wi, end := sh.watches(qs.i); wi < end; wi++ {
			sh.wOwner = append(sh.wOwner, qs.i)
			f.qByItem[sh.wItem[wi]] = append(f.qByItem[sh.wItem[wi]], wi)
		}
		f.byName[q.Name] = named{h: h}
		if f.admitPlace(h) == repository.NoID {
			return fmt.Errorf("serve: no repository to place query %q on", q.Name)
		}
	}
	return nil
}

// QuerySessions returns the query catalogue in attachment order.
func (f *Fleet) QuerySessions() []*QuerySession { return f.queries }

// seedQueries installs the initial values into both evaluators and
// primes the result meter — the synchronized-join path, outside the
// delivery stream (no eval/recompute counted).
func (f *Fleet) seedQueries(initial map[string]float64) {
	for _, qs := range f.queries {
		for _, x := range qs.Query.Items {
			if v, ok := initial[x]; ok {
				qs.truth.Seed(x, v, 0)
				qs.view.Seed(x, v, 0)
			}
		}
		if rt, ok := qs.truth.Result(); ok {
			qs.rm.src = rt
			if qs.Query.Pred != nil {
				qs.predOpen = qs.Query.Pred.Holds(rt)
				qs.gate(0)
			}
		}
		if rv, ok := qs.view.Result(); ok {
			if qs.Query.Pred == nil || qs.Query.Pred.Holds(rv) {
				qs.rm.have = rv
			}
		}
		qs.rm.refresh()
	}
}

// observeQuerySource feeds one source-signal change into every query
// watching the item: the truth evaluator recomputes, the result meter's
// reference moves, and the predicate gate follows the truth result.
func (f *Fleet) observeQuerySource(now sim.Time, id uint32, v float64) {
	sh := &f.shards[f.qsh()]
	for _, wi := range f.qByItem[id] {
		qs := f.queries[sh.wOwner[wi]]
		rt, ok, _ := qs.truth.Observe(f.itemName[id], v, f.qTick(now))
		if !ok {
			continue
		}
		qs.rm.srcUpdate(now, rt)
		if qs.Query.Pred != nil {
			qs.predOpen = qs.Query.Pred.Holds(rt)
			qs.gate(now)
		}
	}
}

// deliverQueries is deliverShard over the query shard: the same filter,
// and every input delivery it lets through also feeds the owning query's
// view evaluator.
func (f *Fleet) deliverQueries(repo repository.ID, id uint32, now sim.Time, v float64, cSelf coherency.Requirement) (delivered, filtered int) {
	sh := &f.shards[f.qsh()]
	for _, ref := range f.post[f.qsh()][repo-1][id] {
		wi := ref.wi
		if sh.wSeeded[wi] && !coherency.ShouldForward(v, sh.wHave[wi], sh.wTol[wi], cSelf) {
			filtered++
			continue
		}
		f.deliverWatch(sh, wi, now, v)
		f.queryDeliver(f.queries[sh.wOwner[wi]], now, id, v, false)
		delivered++
	}
	return delivered, filtered
}

// queryDeliver runs one filtered input delivery (its input meter already
// moved) through a query session: the push tallies move, the view
// evaluator recomputes, and a changed result that passes the predicate
// is published to the client's copy.
func (f *Fleet) queryDeliver(qs *QuerySession, now sim.Time, id uint32, v float64, resync bool) {
	if resync {
		qs.resyncPushes++
	} else {
		qs.inputPushes++
	}
	res, ok, changed := qs.view.Observe(f.itemName[id], v, f.qTick(now))
	recomputed := 0
	if ok {
		recomputed = 1
	}
	f.opts.Obs.Node(qs.Repo()).QueryPass(1, recomputed)
	if !ok || !changed {
		return
	}
	if qs.Query.Pred != nil && !qs.Query.Pred.Holds(res) {
		return
	}
	qs.resultPushes++
	qs.rm.deliver(now, res)
}

// FinalizeQueries flushes churn through the horizon and returns the
// query layer's end-of-run statistics. Call it alongside Finalize.
func (f *Fleet) FinalizeQueries(horizon sim.Time) QueryStats {
	f.catchUp(horizon)
	st := QueryStats{Queries: len(f.queries), MeanFidelity: 1, WorstFidelity: 1, MeanInputFloor: 1}
	if len(f.queries) == 0 {
		return st
	}
	var fidSum, floorSum float64
	worst := 1.0
	for _, qs := range f.queries {
		fid := qs.Fidelity(horizon)
		floor := qs.InputFloor(horizon)
		fidSum += fid
		floorSum += floor
		if fid < worst {
			worst = fid
		}
		st.Evals += qs.view.Evals()
		st.Recomputes += qs.view.Recomputes()
		st.InputPushes += qs.inputPushes
		st.ResultPushes += qs.resultPushes
		st.Resyncs += qs.resyncPushes
		if qs.Query.Placement == query.PlaceClient {
			st.Messages += qs.inputPushes + qs.resyncPushes
		} else {
			st.Messages += qs.resultPushes
		}
		st.PerQuery = append(st.PerQuery, QueryOutcome{
			Name:         qs.Query.Name,
			Spec:         qs.Query.String(),
			Repo:         qs.Repo(),
			Fidelity:     fid,
			InputFloor:   floor,
			Evals:        qs.view.Evals(),
			Recomputes:   qs.view.Recomputes(),
			InputPushes:  qs.inputPushes,
			ResultPushes: qs.resultPushes,
			Resyncs:      qs.resyncPushes,
		})
	}
	st.MeanFidelity = fidSum / float64(len(f.queries))
	st.WorstFidelity = worst
	st.LossPercent = 100 * (1 - st.MeanFidelity)
	st.MeanInputFloor = floorSum / float64(len(f.queries))
	return st
}

// meter integrates a query result's coherency over its session's
// attached lifetime — the object form of the store's flat per-watch
// meters, with its own source copy (the truth result). Like
// coherency.Tracker it exploits that both signals are piecewise
// constant, but it additionally supports detach/attach so fidelity is
// measured only while the client is served — a departed client observes
// nothing.
type meter struct {
	c coherency.Requirement

	src, have float64
	attached  bool
	inViol    bool
	last      sim.Time // time of the most recent state change
	span      sim.Time // total attached observation time
	viol      sim.Time // attached time spent out of tolerance
}

// advance accounts [m.last, now) against the current state.
func (m *meter) advance(now sim.Time) {
	if now < m.last {
		panic(fmt.Sprintf("serve: meter moved backwards from %v to %v", m.last, now))
	}
	if m.attached {
		m.span += now - m.last
		if m.inViol {
			m.viol += now - m.last
		}
	}
	m.last = now
}

func (m *meter) refresh() { m.inViol = m.c.Violated(m.src, m.have) }

// srcUpdate records a source value change.
func (m *meter) srcUpdate(now sim.Time, v float64) {
	m.advance(now)
	m.src = v
	m.refresh()
}

// deliver records a value delivered to the client.
func (m *meter) deliver(now sim.Time, v float64) {
	m.advance(now)
	m.have = v
	m.refresh()
}

// fidelity returns the attached-time fidelity up to now, and false when
// the meter never observed any attached time.
func (m *meter) fidelity(now sim.Time) (float64, bool) {
	return observed(m.span, m.viol, m.last, m.attached, m.inViol, now)
}
