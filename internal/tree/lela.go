package tree

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"d3t/internal/coherency"
	"d3t/internal/netsim"
	"d3t/internal/repository"
	"d3t/internal/sim"
)

// LeLA is the paper's Level-by-Level Algorithm (Section 4). Repositories
// are inserted one at a time: starting at level 0 (the source), the load
// controller of each level scores the level's members with the preference
// function, keeps everyone within PPercent of the best score as potential
// parents, splits the entering repository's data needs across them, and
// augments the most preferred parent — cascading toward the source — for
// items nobody at the level serves.
type LeLA struct {
	// PPercent is the load controller's admission band: candidates whose
	// preference is within PPercent% of the minimum become potential
	// parents. The paper uses 5%.
	PPercent float64
	// Preference scores candidates; defaults to P1.
	Preference PreferenceFunc
	// Seed drives the random choice among a node's parents during
	// cascading augmentation.
	Seed int64
}

// Name implements Builder.
func (l *LeLA) Name() string { return "lela" }

// Build implements Builder. Repositories are inserted in slice order; the
// i-th repository becomes overlay node i+1 and must already carry its
// needs and cooperation limit.
func (l *LeLA) Build(net *netsim.Network, repos []*repository.Repository, sourceCoopLimit int) (*Overlay, error) {
	p := l.PPercent
	if p == 0 {
		p = 5
	}
	pref := l.Preference
	if pref == nil {
		pref = P1
	}
	rng := rand.New(rand.NewSource(l.Seed))

	o, err := newOverlay(net, repos, sourceCoopLimit)
	if err != nil {
		return nil, err
	}
	// levels[d] holds the ids of nodes at overlay depth d.
	levels := [][]repository.ID{{repository.SourceID}}
	for _, q := range repos {
		lvl, err := l.insert(o, levels, q, p, pref, rng)
		if err != nil {
			return nil, err
		}
		for len(levels) <= lvl {
			levels = append(levels, nil)
		}
		levels[lvl] = append(levels[lvl], q.ID)
	}
	return o, nil
}

// insert places q below some level and returns q's resulting level.
func (l *LeLA) insert(o *Overlay, levels [][]repository.ID, q *repository.Repository,
	pPercent float64, pref PreferenceFunc, rng *rand.Rand) (int, error) {

	needs := q.NeededItems()
	for lvl := 0; lvl < len(levels); lvl++ {
		// The load controller for this level: score members with spare
		// capacity.
		type scored struct {
			node *repository.Repository
			pref float64
		}
		var cands []scored
		for _, id := range levels[lvl] {
			n := o.Node(id)
			if !n.HasCapacityFor(q.ID) {
				continue
			}
			avail := 0
			for _, x := range needs {
				if n.CanServe(x, q.Needs[x]) {
					avail++
				}
			}
			cands = append(cands, scored{n, pref(PrefInputs{
				DelayMs:    delayMs(o.Net, n.ID, q.ID),
				Dependents: n.NumChildren(),
				Available:  avail,
			})})
		}
		if len(cands) == 0 {
			continue // level full; the load controller passes q down
		}
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].pref < cands[j].pref })
		cut := cands[0].pref * (1 + pPercent/100)
		potential := cands[:0:0]
		for _, c := range cands {
			if c.pref <= cut {
				potential = append(potential, c)
			}
		}

		// Split q's needs across the potential parents: each item goes to
		// the most preferred parent that can serve it outright.
		assigned := make(map[string]*repository.Repository, len(needs))
		var leftovers []string
		for _, x := range needs {
			var owner *repository.Repository
			for _, c := range potential {
				if c.node.CanServe(x, q.Needs[x]) {
					owner = c.node
					break
				}
			}
			if owner == nil {
				leftovers = append(leftovers, x)
				continue
			}
			assigned[x] = owner
		}
		// Items nobody serves go to the most preferred parent, which is
		// augmented (possibly cascading all the way to the source).
		for _, x := range leftovers {
			assigned[x] = potential[0].node
		}

		for _, x := range needs {
			parent := assigned[x]
			c := q.Needs[x]
			if !parent.CanServe(x, c) {
				if err := augment(o, parent, x, c, rng); err != nil {
					return 0, err
				}
			}
			parent.AddDependent(x, q.ID)
			q.Parents[x] = parent.ID
		}
		if len(needs) == 0 {
			// A repository with no data needs of its own still joins with
			// a liaison connection, so it consumes overlay capacity like
			// any other member and can be augmented into service later.
			potential[0].node.Attach(q.ID)
			q.Liaison = potential[0].node.ID
		}
		q.Level = lvl + 1
		return lvl + 1, nil
	}
	return 0, fmt.Errorf("tree: no capacity anywhere for repository %d (all %d levels full)",
		q.ID, len(levels))
}

// augment makes node p able to serve item x at tolerance c: it tightens
// p's own serving tolerance and establishes (or tightens) a feed for x
// from one of p's parents, recursing toward the source (the cascading
// augmentation of Section 4). p must not be the source.
func augment(o *Overlay, p *repository.Repository, x string, c coherency.Requirement, rng *rand.Rand) error {
	if p.IsSource() {
		return nil // the source holds every item exactly
	}
	p.Tighten(x, c)
	if pid, ok := p.Parents[x]; ok {
		parent := o.Node(pid)
		if !parent.CanServe(x, c) {
			return augment(o, parent, x, c, rng)
		}
		return nil
	}
	// No feed for x yet: the paper picks one of p's existing parents at
	// random and asks it to serve x (no new push connection is needed —
	// p is already that parent's child).
	var parent *repository.Repository
	if parents := distinctParents(nil, p); len(parents) > 0 {
		parent = o.Node(parents[rng.Intn(len(parents))])
	} else {
		// p entered the overlay with no data needs, so it has no feeds at
		// all. Adopt a parent from a strictly lower level (guaranteeing
		// acyclicity) with a free connection slot.
		for _, cand := range o.Nodes {
			if cand.Level < p.Level && cand.ID != p.ID && cand.HasCapacityFor(p.ID) {
				parent = cand
				break
			}
		}
		if parent == nil {
			return fmt.Errorf("tree: cannot augment node %d for %s: no adoptable parent with capacity", p.ID, x)
		}
	}
	if !parent.CanServe(x, c) {
		if err := augment(o, parent, x, c, rng); err != nil {
			return err
		}
	}
	parent.AddDependent(x, p.ID)
	p.Parents[x] = parent.ID
	return nil
}

// distinctParents appends to dst p's parent ids over all items (falling
// back to the liaison parent), sorted and deduped for deterministic
// random selection.
func distinctParents(dst []repository.ID, p *repository.Repository) []repository.ID {
	start := len(dst)
	for _, id := range p.Parents {
		if !slices.Contains(dst[start:], id) {
			dst = append(dst, id)
		}
	}
	if len(dst) == start && p.Liaison != repository.NoID {
		dst = append(dst, p.Liaison)
	}
	slices.Sort(dst[start:])
	return dst
}

// delayMs returns the physical delay between two overlay nodes in
// milliseconds.
func delayMs(net *netsim.Network, a, b repository.ID) float64 {
	return float64(net.Delay[a][b]) / float64(sim.Millisecond)
}

// newOverlay allocates the source and checks that node ids line up with
// network endpoints. The network may have spare endpoint capacity beyond
// the initial repositories — room for later Insert joins.
func newOverlay(net *netsim.Network, repos []*repository.Repository, sourceCoopLimit int) (*Overlay, error) {
	if len(repos) > net.Repositories {
		return nil, fmt.Errorf("tree: %d repositories but network has only %d endpoints for them",
			len(repos), net.Repositories)
	}
	nodes := make([]*repository.Repository, len(repos)+1)
	nodes[repository.SourceID] = repository.New(repository.SourceID, sourceCoopLimit)
	for i, r := range repos {
		want := repository.ID(i + 1)
		if r.ID != want {
			return nil, fmt.Errorf("tree: repository at index %d has id %d, want %d", i, r.ID, want)
		}
		if r.CoopLimit < 1 {
			return nil, fmt.Errorf("tree: repository %d offers no cooperation (limit %d)", r.ID, r.CoopLimit)
		}
		nodes[want] = r
	}
	return &Overlay{Nodes: nodes, Net: net}, nil
}
