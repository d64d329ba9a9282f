package dissemination

import (
	"d3t/internal/coherency"
	"d3t/internal/node"
	"d3t/internal/obs"
	"d3t/internal/repository"
	"d3t/internal/sim"
	"d3t/internal/tree"
)

// Distributed is the repository-based dissemination algorithm of Section
// 5.1, re-seated on the transport-agnostic repository core: every overlay
// node owns a node.Core holding its per-edge filter state, and this
// adapter translates core decisions into the simulator's Forward lists.
// With UseEq7 false it degrades to the naive Eq.3-only filter, which
// cannot guarantee fidelity even with zero delays (Figure 4); that
// variant exists for the ablation and the tests.
type Distributed struct {
	// UseEq7 enables the missed-update guard. The real algorithm has it
	// on; turning it off yields the naive baseline.
	UseEq7 bool

	overlay *tree.Overlay
	cores   []*node.Core // indexed by overlay id
	col     collector
}

// collector is the simulator-side Transport: it accumulates dependent
// decisions into a reused Forward buffer (the runner schedules the sends
// itself, with the delay model applied), so the steady-state pipeline
// performs no allocations. Simulated cores serve no client sessions.
type collector struct {
	buf []Forward
}

func (c *collector) Now() sim.Time { return 0 }

func (c *collector) SendToDependent(dep repository.ID, item string, v float64, resync bool) bool {
	c.buf = append(c.buf, Forward{To: dep})
	return true
}

func (c *collector) SendToClient(s *node.Session, item string, v float64, resync bool) {}

// NewDistributed returns the paper's distributed algorithm.
func NewDistributed() *Distributed { return &Distributed{UseEq7: true} }

// NewNaive returns the Eq.3-only variant.
func NewNaive() *Distributed { return &Distributed{UseEq7: false} }

// Name implements Protocol.
func (d *Distributed) Name() string {
	if d.UseEq7 {
		return "distributed"
	}
	return "naive-eq3"
}

// Init implements Protocol: build one core per overlay node and seed
// every existing edge's filter state with the initial values.
func (d *Distributed) Init(o *tree.Overlay, initial map[string]float64) {
	d.overlay = o
	d.cores = make([]*node.Core, len(o.Nodes))
	for _, n := range o.Nodes {
		d.cores[n.ID] = node.New(n, o.Node, node.Options{Eq3Only: !d.UseEq7})
		for x := range n.Dependents {
			d.cores[n.ID].Seed(x, initial[x])
		}
	}
}

// Core exposes the per-node state machine (for parity instrumentation).
func (d *Distributed) Core(id repository.ID) *node.Core { return d.cores[id] }

// SetObs attaches one observer per node core, so the decision counters
// (received/forwarded/suppressed, checks) land in the observability
// tree. Run calls it after Init when the config carries an obs tree.
func (d *Distributed) SetObs(t *obs.Tree) {
	for _, c := range d.cores {
		c.SetObs(t.Node(c.ID()))
	}
}

// ResetEdge re-seeds the per-edge filter state for item x after overlay
// repair re-homes a dependent: the last value "sent" over the (possibly
// brand-new, possibly re-adopted) edge is the value the parent just
// synced. Without this, an edge revived after crash-and-rejoin would
// filter against its pre-crash state and could withhold updates the
// dependent needs.
func (d *Distributed) ResetEdge(from, to repository.ID, x string, v float64) {
	d.cores[from].ResetEdge(to, x, v)
}

// AtSource implements Protocol. The source holds the exact value, so its
// own tolerance in Eq. (7) is zero and the filter reduces to Eq. (3).
func (d *Distributed) AtSource(x string, v float64) ([]Forward, int) {
	return d.at(repository.SourceID, x, v)
}

// AtRepo implements Protocol.
func (d *Distributed) AtRepo(n *repository.Repository, x string, v float64, _ coherency.Requirement) ([]Forward, int) {
	return d.at(n.ID, x, v)
}

// at runs the core pipeline and hands back the collected decisions. The
// returned slice is reused across calls; the runner consumes it before
// the next protocol call, like every Protocol implementation's caller
// must.
func (d *Distributed) at(id repository.ID, x string, v float64) ([]Forward, int) {
	d.col.buf = d.col.buf[:0]
	_, checks := d.cores[id].Apply(x, v, &d.col)
	if len(d.col.buf) == 0 {
		return nil, checks
	}
	return d.col.buf, checks
}

// AllPush is the Figure 8 baseline: no filtering at all; every update of
// an item flows to every repository interested in it.
type AllPush struct {
	overlay *tree.Overlay
	buf     []Forward // reused across calls, see Protocol
}

// NewAllPush returns the unfiltered baseline.
func NewAllPush() *AllPush { return &AllPush{} }

// Name implements Protocol.
func (a *AllPush) Name() string { return "all-push" }

// Init implements Protocol.
func (a *AllPush) Init(o *tree.Overlay, _ map[string]float64) { a.overlay = o }

// AtSource implements Protocol.
func (a *AllPush) AtSource(x string, v float64) ([]Forward, int) {
	return a.all(a.overlay.Source(), x)
}

// AtRepo implements Protocol.
func (a *AllPush) AtRepo(node *repository.Repository, x string, _ float64, _ coherency.Requirement) ([]Forward, int) {
	return a.all(node, x)
}

func (a *AllPush) all(node *repository.Repository, x string) ([]Forward, int) {
	a.buf = a.buf[:0]
	for _, dep := range node.Dependents[x] {
		a.buf = append(a.buf, Forward{To: dep})
	}
	return a.buf, 0 // no filtering checks are performed
}
