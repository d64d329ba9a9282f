// Property-based test of the repository core: on randomly generated
// overlays, tolerances and traces, (1) no repository's copy ever deviates
// from the source by more than its serving tolerance — the paper's
// zero-delay 100%-fidelity guarantee, which only holds if Eqs. 3 and 7
// fire exactly when they must — and (2) every forward and every
// suppression the core decides matches a straightforward shadow model
// that re-derives the decision from the raw equations and its own
// last-pushed bookkeeping, so a suppressed push is always justified.
// Finally the same feed runs through the simulator at zero computational
// delay with 1 and 8 item shards (dissemination.RunShards), which must
// produce identical forward/suppress decision sets (and the same set the
// model-checked run produced).
//
// The test lives in package node_test so it can drive the core through
// the simulator without an import cycle.
package node_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"d3t/internal/coherency"
	"d3t/internal/dissemination"
	"d3t/internal/netsim"
	"d3t/internal/node"
	"d3t/internal/query"
	"d3t/internal/repository"
	"d3t/internal/sim"
	"d3t/internal/trace"
	"d3t/internal/tree"
)

// propScenario is one randomly drawn world.
type propScenario struct {
	seed  int64
	items int
	repos int
	ticks int
	prob  float64
	frac  float64
}

func drawScenario(rng *rand.Rand) propScenario {
	return propScenario{
		seed:  rng.Int63n(1 << 30),
		items: 3 + rng.Intn(6),
		repos: 6 + rng.Intn(9),
		ticks: 80 + rng.Intn(150),
		prob:  0.4 + 0.5*rng.Float64(),
		frac:  rng.Float64(),
	}
}

// buildWorld constructs the scenario's overlay and traces.
func buildWorld(t *testing.T, sc propScenario) (*tree.Overlay, []*trace.Trace, map[string]float64) {
	t.Helper()
	traces := trace.GenerateSet(sc.items, sc.ticks, sim.Second, sc.seed)
	names := make([]string, len(traces))
	initial := make(map[string]float64, len(traces))
	for i, tr := range traces {
		names[i] = tr.Item
		initial[tr.Item] = tr.Ticks[0].Value
	}
	repos := make([]*repository.Repository, sc.repos)
	for i := range repos {
		repos[i] = repository.New(repository.ID(i+1), 3)
	}
	repository.AssignNeeds(repos, repository.Workload{
		Items:         names,
		SubscribeProb: sc.prob,
		StringentFrac: sc.frac,
		Seed:          sc.seed + 1,
	})
	o, err := (&tree.LeLA{Seed: sc.seed + 2}).Build(netsim.Uniform(sc.repos, sim.Millisecond), repos, 3)
	if err != nil {
		t.Fatal(err)
	}
	return o, traces, initial
}

// recordTransport captures one apply pass's dependent sends.
type recordTransport struct{ sent []repository.ID }

func (t *recordTransport) Now() sim.Time { return 0 }
func (t *recordTransport) SendToDependent(dep repository.ID, item string, v float64, resync bool) bool {
	t.sent = append(t.sent, dep)
	return true
}
func (t *recordTransport) SendToClient(s *node.Session, item string, v float64, resync bool) {}

// edgeKey identifies one (parent, dependent, item) push edge.
type edgeKey struct {
	from, to repository.ID
	item     string
}

// edgeState is the shadow model's last-pushed bookkeeping.
type edgeState struct {
	v      float64
	seeded bool
}

func TestCoreProperties(t *testing.T) {
	scenarios := 12
	if testing.Short() {
		scenarios = 4
	}
	rng := rand.New(rand.NewSource(20260729))
	for i := 0; i < scenarios; i++ {
		sc := drawScenario(rng)
		t.Run(fmt.Sprintf("seed=%d", sc.seed), func(t *testing.T) {
			runPropScenario(t, sc)
		})
	}
}

func runPropScenario(t *testing.T, sc propScenario) {
	o, traces, initial := buildWorld(t, sc)

	// The model-checked direct run: one core per overlay node, zero
	// delay, synchronous BFS per source update.
	cores := make([]*node.Core, len(o.Nodes))
	for _, n := range o.Nodes {
		cores[n.ID] = node.New(n, o.Node, node.Options{})
		for x := range n.Dependents {
			cores[n.ID].Seed(x, initial[x])
		}
	}
	model := make(map[edgeKey]edgeState)
	copies := make(map[repository.ID]map[string]float64)
	for _, n := range o.Nodes {
		copies[n.ID] = make(map[string]float64)
		for x := range n.Serving {
			if v, ok := initial[x]; ok {
				copies[n.ID][x] = v
			}
		}
		for x, deps := range n.Dependents {
			for _, dep := range deps {
				model[edgeKey{n.ID, dep, x}] = edgeState{v: initial[x], seeded: true}
			}
		}
	}
	var tr recordTransport

	// expectedForwards re-derives the fan-out from the raw equations and
	// the shadow state: the first-push rule for unseeded edges, then
	// Eqs. 3 and 7.
	expectedForwards := func(r *repository.Repository, item string, v float64) []repository.ID {
		var cSelf coherency.Requirement
		if !r.IsSource() {
			var holds bool
			cSelf, holds = r.ServingTolerance(item)
			if !holds {
				return nil // a repository that does not maintain the item serves it to no one
			}
		}
		var out []repository.ID
		for _, dep := range r.Dependents[item] {
			cDep, ok := o.Node(dep).ServingTolerance(item)
			if !ok {
				continue
			}
			st := model[edgeKey{r.ID, dep, item}]
			if !st.seeded || coherency.ShouldForward(v, st.v, cDep, cSelf) {
				out = append(out, dep)
			}
		}
		return out
	}

	apply := func(item string, srcVal float64) {
		type hop struct {
			id repository.ID
			v  float64
		}
		queue := []hop{{repository.SourceID, srcVal}}
		for len(queue) > 0 {
			h := queue[0]
			queue = queue[1:]
			r := o.Node(h.id)
			want := expectedForwards(r, item, h.v)
			tr.sent = tr.sent[:0]
			cores[h.id].Apply(item, h.v, &tr)
			got := append([]repository.ID(nil), tr.sent...)
			if len(got) != len(want) {
				t.Fatalf("node %v item %s value %v: core forwarded to %v, equations say %v",
					h.id, item, h.v, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("node %v item %s value %v: core forwarded to %v, equations say %v",
						h.id, item, h.v, got, want)
				}
			}
			if _, holds := copies[h.id][item]; holds || r.IsSource() {
				copies[h.id][item] = h.v
			}
			for _, dep := range want {
				model[edgeKey{h.id, dep, item}] = edgeState{v: h.v, seeded: true}
				queue = append(queue, hop{dep, h.v})
			}
		}
	}

	// checkInvariant: with zero delays, every repository serving the item
	// is within its own tolerance of the source — the fidelity guarantee
	// Eqs. 3+7 exist to uphold.
	checkInvariant := func(item string, srcVal float64) {
		for _, r := range o.Repos() {
			tol, ok := r.ServingTolerance(item)
			if !ok {
				continue
			}
			have, ok := copies[r.ID][item]
			if !ok {
				continue
			}
			if dev := math.Abs(srcVal - have); dev > float64(tol)+1e-9 {
				t.Fatalf("repo %v item %s: |source %v - copy %v| = %v exceeds tolerance %v",
					r.ID, item, srcVal, have, dev, tol)
			}
		}
	}

	// Feed every value-changing tick, in tick order across traces —
	// checking the fan-out equations at every hop and the fidelity
	// invariant after every update.
	last := make(map[string]float64, len(traces))
	for _, tc := range traces {
		last[tc.Item] = tc.Ticks[0].Value
	}
	maxTicks := 0
	for _, tc := range traces {
		if tc.Len() > maxTicks {
			maxTicks = tc.Len()
		}
	}
	for i := 1; i < maxTicks; i++ {
		for _, tc := range traces {
			if i >= tc.Len() || tc.Ticks[i].Value == last[tc.Item] {
				continue
			}
			v := tc.Ticks[i].Value
			last[tc.Item] = v
			apply(tc.Item, v)
			checkInvariant(tc.Item, v)
		}
	}

	// Decision-set parity: the model-checked cores and the simulator at 1
	// and 8 shards must have made exactly the same forward/suppress
	// decisions per (repository, item). The simulator observes until the
	// last trace tick; one quiet tick a second later lets the copies of the
	// final updates land inside the horizon, as the synchronous run above
	// delivered them.
	direct := make(map[string]node.Decisions)
	for _, n := range o.Nodes {
		for item, d := range cores[n.ID].EdgeDecisions() {
			direct[n.ID.String()+"/"+item] = d
		}
	}
	if len(direct) == 0 {
		t.Fatal("no decisions made; the scenario is vacuous")
	}
	fed := make([]*trace.Trace, len(traces))
	for i, tc := range traces {
		end := tc.Ticks[tc.Len()-1]
		fed[i] = &trace.Trace{Item: tc.Item, Ticks: append(slices.Clip(tc.Ticks), trace.Tick{At: end.At + sim.Second, Value: end.Value})}
	}
	newProtocol := func() dissemination.Protocol { return dissemination.NewDistributed() }
	for _, shards := range []int{1, 8} {
		_, protos, err := dissemination.RunShards(o, fed, newProtocol, dissemination.Config{CompDelay: -1}, shards)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string]node.Decisions)
		for _, p := range protos {
			for _, n := range o.Nodes {
				for item, d := range p.(*dissemination.Distributed).Core(n.ID).EdgeDecisions() {
					got[n.ID.String()+"/"+item] = d
				}
			}
		}
		if len(got) != len(direct) {
			t.Fatalf("shards=%d: decision set size %d, want %d", shards, len(got), len(direct))
		}
		for k, w := range direct {
			if got[k] != w {
				t.Errorf("shards=%d: decisions[%s] = %+v, want %+v", shards, k, got[k], w)
			}
		}
	}
}

// TestQueryToleranceInvariant is the query layer's analogue of the core
// fidelity property: on randomly drawn queries, whenever every delivered
// input is within its allocated per-input tolerance of the true value,
// the recomputed windowed result stays within cQ of the true result. Two
// evaluators run in lockstep on the identical delivery/tick sequence —
// one fed true values, one fed adversarially perturbed ones — and a
// per-operator shadow model (direct formula over the recorded per-tick
// aggregates) independently re-derives what the true result must be, so
// the evaluator itself is model-checked at the same time.
//
// Ratio's allocation is first-order (see internal/query doc comment), so
// its draws keep the preconditions the bound needs: |numerator| ≤
// denominator and the perturbed denominator ≥ 1.
func TestQueryToleranceInvariant(t *testing.T) {
	kinds := []query.Kind{query.Sum, query.Avg, query.Min, query.Max, query.Diff, query.Ratio}
	pool := []string{"i0", "i1", "i2", "i3", "i4", "i5", "i6", "i7"}
	rng := rand.New(rand.NewSource(20260807))
	scenarios := 48
	if testing.Short() {
		scenarios = 12
	}
	for i := 0; i < scenarios; i++ {
		kind := kinds[i%len(kinds)]
		items := append([]string(nil), pool...)
		rng.Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
		n := 1 + rng.Intn(5)
		if kind.IsJoin() {
			n = 2
		}
		q := query.Query{
			Name:      fmt.Sprintf("prop%d", i),
			Kind:      kind,
			Items:     items[:n],
			Window:    1 + rng.Intn(4),
			Tolerance: 0.5 + 4.5*rng.Float64(),
		}
		if kind == query.Ratio {
			q.Tolerance = 0.2 + 0.8*rng.Float64()
		}
		t.Run(fmt.Sprintf("%d-%s-w%d-n%d", i, kind, q.Window, n), func(t *testing.T) {
			runQueryToleranceScenario(t, q, rand.New(rand.NewSource(int64(7919*i+13))))
		})
	}
}

// shadowAggregate re-derives the instantaneous cross-item aggregate from
// the raw per-operator formula.
func shadowAggregate(q query.Query, vals map[string]float64) float64 {
	switch q.Kind {
	case query.Sum, query.Avg:
		var s float64
		for _, x := range q.Items {
			s += vals[x]
		}
		if q.Kind == query.Avg {
			s /= float64(len(q.Items))
		}
		return s
	case query.Min, query.Max:
		out := vals[q.Items[0]]
		for _, x := range q.Items[1:] {
			if v := vals[x]; (q.Kind == query.Min && v < out) || (q.Kind == query.Max && v > out) {
				out = v
			}
		}
		return out
	case query.Diff:
		return vals[q.Items[0]] - vals[q.Items[1]]
	case query.Ratio:
		return vals[q.Items[0]] / vals[q.Items[1]]
	}
	return 0
}

// shadowCombine folds the last Window per-tick aggregates the way the
// documented combiner does: min/max for min/max, the mean otherwise.
func shadowCombine(q query.Query, hist []float64) float64 {
	w := q.Window
	if len(hist) < w {
		w = len(hist)
	}
	slots := hist[len(hist)-w:]
	switch q.Kind {
	case query.Min, query.Max:
		out := slots[0]
		for _, v := range slots[1:] {
			if (q.Kind == query.Min && v < out) || (q.Kind == query.Max && v > out) {
				out = v
			}
		}
		return out
	default:
		var s float64
		for _, v := range slots {
			s += v
		}
		return s / float64(len(slots))
	}
}

func runQueryToleranceScenario(t *testing.T, q query.Query, rng *rand.Rand) {
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	draw := func(x string) float64 {
		if q.Kind == query.Ratio {
			if x == q.Items[1] {
				return 2 + 8*rng.Float64() // denominator bounded away from zero
			}
			return -2 + 4*rng.Float64() // |numerator| ≤ denominator
		}
		return 100 * rng.Float64()
	}
	tol := float64(q.InputTolerance())
	trueEval, servedEval := query.NewEval(q), query.NewEval(q)
	truth := make(map[string]float64, len(q.Items))
	var hist []float64
	for tick := int64(0); tick < 60; tick++ {
		// Redraw every input, then deliver the tick's values to both
		// evaluators in a random order — identical sequence and ticks, so
		// their windows stay slot-aligned.
		order := append([]string(nil), q.Items...)
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, x := range order {
			truth[x] = draw(x)
			trueEval.Observe(x, truth[x], tick)
			pert := (2*rng.Float64() - 1) * tol
			servedEval.Observe(x, truth[x]+pert, tick)
		}
		hist = append(hist, shadowAggregate(q, truth))
		want := shadowCombine(q, hist)
		got, ok := trueEval.Result()
		if !ok {
			t.Fatalf("tick %d: result undefined after all inputs delivered", tick)
		}
		if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("tick %d: evaluator result %v disagrees with shadow model %v", tick, got, want)
		}
		served, ok := servedEval.Result()
		if !ok {
			t.Fatalf("tick %d: served result undefined", tick)
		}
		if dev := math.Abs(served - want); dev > q.Tolerance+1e-9 {
			t.Fatalf("tick %d: |served %v - true %v| = %v exceeds cQ %v (per-input tol %v)",
				tick, served, want, dev, q.Tolerance, tol)
		}
	}
	wantDeliveries := uint64(60 * len(q.Items))
	wantRecomputes := wantDeliveries - uint64(len(q.Items)-1) // pre-first-full-set deliveries don't recompute
	if trueEval.Evals() != wantDeliveries || trueEval.Recomputes() != wantRecomputes {
		t.Errorf("counts: evals=%d recomputes=%d, want %d/%d (every delivery recomputes once all inputs are present)",
			trueEval.Evals(), trueEval.Recomputes(), wantDeliveries, wantRecomputes)
	}
}
