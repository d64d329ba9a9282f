package dissemination

import (
	"sort"

	"d3t/internal/coherency"
	"d3t/internal/repository"
	"d3t/internal/tree"
)

// Centralized is the source-based dissemination algorithm of Section 5.2.
// The source tracks every unique coherency tolerance registered for each
// item and the last value disseminated for that tolerance. On an update it
// finds all violated tolerances, tags the update with the largest one
// (c_max), and pushes it down the tree; every node forwards a tagged
// update to exactly the dependents whose tolerance is at least as
// stringent as the tag (c_dep <= c_max).
//
// Compared with Distributed it concentrates both state (the tolerance
// lists) and checks (one per unique tolerance per update) at the source —
// the scalability cost Section 6.3.4 measures.
type Centralized struct {
	overlay *tree.Overlay
	// tolerances[x] is the ascending list of unique tolerances for item x.
	tolerances map[string][]coherency.Requirement
	// sent[x][c] is the last value disseminated for tolerance c of item x.
	sent map[string]map[coherency.Requirement]float64
	buf  []Forward // reused across calls, see Protocol
}

// NewCentralized returns the source-based algorithm.
func NewCentralized() *Centralized { return &Centralized{} }

// Name implements Protocol.
func (c *Centralized) Name() string { return "centralized" }

// Init implements Protocol: collect the unique serving tolerances of every
// repository per item — the list the paper's source maintains.
func (c *Centralized) Init(o *tree.Overlay, initial map[string]float64) {
	c.overlay = o
	c.tolerances = make(map[string][]coherency.Requirement)
	c.sent = make(map[string]map[coherency.Requirement]float64)
	uniq := make(map[string]map[coherency.Requirement]bool)
	for _, n := range o.Repos() {
		for x, tol := range n.Serving {
			m := uniq[x]
			if m == nil {
				m = make(map[coherency.Requirement]bool)
				uniq[x] = m
			}
			m[tol] = true
		}
	}
	for x, set := range uniq {
		list := make([]coherency.Requirement, 0, len(set))
		for tol := range set {
			list = append(list, tol)
		}
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		c.tolerances[x] = list
		sentx := make(map[coherency.Requirement]float64, len(list))
		for _, tol := range list {
			sentx[tol] = initial[x]
		}
		c.sent[x] = sentx
	}
}

// AtSource implements Protocol: find c_max, record the value against every
// tolerance it satisfies, and tag the outgoing copies. Each unique
// tolerance examined counts as one source check.
func (c *Centralized) AtSource(x string, v float64) ([]Forward, int) {
	tols := c.tolerances[x]
	checks := len(tols)
	sentx := c.sent[x]
	cmax := coherency.Requirement(-1)
	for _, tol := range tols { // ascending
		if coherency.NeedsUpdate(v, sentx[tol], tol) {
			cmax = tol
		}
	}
	if cmax < 0 {
		return nil, checks
	}
	// The update is "sent for" every tolerance up to and including c_max.
	for _, tol := range tols {
		if tol > cmax {
			break
		}
		sentx[tol] = v
	}
	return c.fanOut(c.overlay.Source(), x, cmax), checks
}

// AtRepo implements Protocol: forward the tagged update to dependents with
// tolerance <= tag. The comparisons are trivial; the paper attributes the
// checking overhead to the source, so repositories report zero checks.
func (c *Centralized) AtRepo(node *repository.Repository, x string, _ float64, tag coherency.Requirement) ([]Forward, int) {
	return c.fanOut(node, x, tag), 0
}

func (c *Centralized) fanOut(node *repository.Repository, x string, tag coherency.Requirement) []Forward {
	c.buf = c.buf[:0]
	for _, dep := range node.Dependents[x] {
		cDep, ok := c.overlay.Node(dep).ServingTolerance(x)
		if !ok {
			continue
		}
		if cDep.AtLeastAsStringentAs(tag) {
			c.buf = append(c.buf, Forward{To: dep, Tag: tag})
		}
	}
	return c.buf
}
