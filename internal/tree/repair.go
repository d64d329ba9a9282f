package tree

import (
	"fmt"
	"math/rand"
	"sort"

	"d3t/internal/coherency"
	"d3t/internal/repository"
)

// This file implements overlay repair: the re-homing machinery that lets a
// repository anywhere in the d3g — interior nodes included — depart or
// fail without severing its downstream subtree. The paper leaves dependent
// re-homing undetailed; the policy here reuses the construction algorithm's
// own ingredients so repaired overlays look like built ones: candidates are
// ranked with the LeLA preference function, admission respects cooperation
// limits, and feeds are established through the same cascading augmentation
// (Section 4) the builder uses.

// BackupParents returns a ranked backup-parent list for repository id: the
// next-best LeLA candidates the node would re-home to if one of its
// current parents disappeared. Candidates come from strictly lower levels
// (guaranteeing acyclicity of any future re-homing), are scored with the
// builder's preference function, and candidates already satisfying the
// node's tightest need outrank those that would require augmentation. At
// most k ids are returned, best first.
//
// The list is a precomputation: capacity and liveness are rechecked at
// repair time, so entries may be skipped when actually needed.
func (l *LeLA) BackupParents(o *Overlay, id repository.ID, k int) []repository.ID {
	if id <= 0 || int(id) >= len(o.Nodes) || k <= 0 {
		return nil
	}
	q := o.Node(id)
	pref := l.Preference
	if pref == nil {
		pref = P1
	}
	// The tightest need is the node's most stringent client-facing
	// tolerance; a backup serving it can serve everything else the node
	// needs from that parent at worst via augmentation.
	tightest, tightestItem, ok := tightestNeed(q)

	type scored struct {
		id        repository.ID
		pref      float64
		satisfies bool
	}
	var cands []scored
	for _, n := range o.Nodes {
		if n.ID == id || n.Level >= q.Level {
			continue
		}
		avail := 0
		for x, c := range q.Needs {
			if n.CanServe(x, c) {
				avail++
			}
		}
		cands = append(cands, scored{
			id: n.ID,
			pref: pref(PrefInputs{
				DelayMs:    delayMs(o.Net, n.ID, id),
				Dependents: n.NumChildren(),
				Available:  avail,
			}),
			satisfies: !ok || n.CanServe(tightestItem, tightest),
		})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].satisfies != cands[j].satisfies {
			return cands[i].satisfies
		}
		if cands[i].pref != cands[j].pref {
			return cands[i].pref < cands[j].pref
		}
		return cands[i].id < cands[j].id
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]repository.ID, len(cands))
	for i, c := range cands {
		out[i] = c.id
	}
	return out
}

// tightestNeed returns the node's most stringent needed tolerance and its
// item. ok is false when the node needs nothing.
func tightestNeed(q *repository.Repository) (c coherency.Requirement, item string, ok bool) {
	first := true
	for _, x := range q.NeededItems() {
		need := q.Needs[x]
		if first || need.AtLeastAsStringentAs(c) {
			c, item, first = need, x, false
		}
	}
	return c, item, !first
}

// Rehome re-establishes dependent d's feed for item x through a new
// parent, excluding the ids in dead. Candidates are ranked exactly like
// BackupParents but with live capacity information; the chosen parent is
// augmented (cascading toward the source) when it does not already serve x
// stringently enough. An empty item re-attaches a liaison connection
// instead (no feed is established). It returns the new parent's id.
//
// The caller is responsible for detaching the old feed first (Parents[x]
// is overwritten; a stale Dependents entry on the old parent would break
// edge symmetry).
func (l *LeLA) Rehome(o *Overlay, d *repository.Repository, x string, dead map[repository.ID]bool) (repository.ID, error) {
	c, needed := d.Serving[x]
	if !needed {
		c = d.Needs[x]
	}
	pref := l.Preference
	if pref == nil {
		pref = P1
	}
	type scored struct {
		node *repository.Repository
		pref float64
		can  bool
	}
	gather := func(admit func(*repository.Repository) bool) []scored {
		var cands []scored
		for _, n := range o.Nodes {
			if n.ID == d.ID || dead[n.ID] || !n.HasCapacityFor(d.ID) || !admit(n) {
				continue
			}
			cands = append(cands, scored{
				node: n,
				pref: pref(PrefInputs{
					DelayMs:    delayMs(o.Net, n.ID, d.ID),
					Dependents: n.NumChildren(),
					Available:  boolToInt(n.CanServe(x, c)),
				}),
				can: n.CanServe(x, c),
			})
		}
		return cands
	}
	// First choice: strictly lower build-time levels; when those are
	// saturated, fall back to any node outside d's own subtree. Both
	// passes exclude the subtree — levels go stale as repairs re-wire
	// nodes, and a candidate whose feed chain passes through d would
	// close a cycle. Outside the subtree, no chain can reach d, so the
	// overlay stays acyclic even after cascading augmentation.
	sub := subtreeOf(o, d)
	cands := gather(func(n *repository.Repository) bool { return n.Level < d.Level && !sub[n.ID] })
	if len(cands) == 0 {
		cands = gather(func(n *repository.Repository) bool { return !sub[n.ID] })
	}
	if len(cands) == 0 {
		return repository.NoID, fmt.Errorf(
			"tree: no live parent with capacity for repository %d (item %s)", d.ID, x)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].can != cands[j].can {
			return cands[i].can
		}
		if cands[i].pref != cands[j].pref {
			return cands[i].pref < cands[j].pref
		}
		return cands[i].node.ID < cands[j].node.ID
	})
	parent := cands[0].node
	if x == "" {
		parent.Attach(d.ID)
		return parent.ID, nil
	}
	rng := rand.New(rand.NewSource(l.Seed + 13_000_000 + int64(d.ID)))
	if !parent.CanServe(x, c) {
		if err := augment(o, parent, x, c, rng); err != nil {
			return repository.NoID, err
		}
	}
	parent.AddDependent(x, d.ID)
	d.Parents[x] = parent.ID
	return parent.ID, nil
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// AdoptFeed makes parent serve item x to dependent d at d's current
// stringency, augmenting the parent (cascading toward the source) when
// needed. Unlike Rehome it does not choose the parent — the resilience
// layer uses it to honor a precomputed backup list. It returns an error
// instead of panicking when the parent has no capacity.
//
// sub must be d's current downstream set (Overlay.Subtree(d.ID)), or nil
// to compute it here; callers trying several candidate parents in a row
// should compute it once — the wiring does not change between rejected
// attempts.
func (l *LeLA) AdoptFeed(o *Overlay, parent, d *repository.Repository, x string, sub map[repository.ID]bool) error {
	if !parent.HasCapacityFor(d.ID) {
		return fmt.Errorf("tree: node %d has no capacity for %d", parent.ID, d.ID)
	}
	// Backup lists are ranked against build-time levels, but repairs may
	// since have re-wired nodes across levels (Rehome's subtree
	// fallback). Reject a candidate inside d's own subtree — its feed
	// chain could pass through d, closing a cycle.
	if sub == nil {
		sub = subtreeOf(o, d)
	}
	if sub[parent.ID] {
		return fmt.Errorf("tree: node %d is downstream of %d (cycle risk)", parent.ID, d.ID)
	}
	c, ok := d.Serving[x]
	if !ok {
		c = d.Needs[x]
	}
	if !parent.CanServe(x, c) {
		rng := rand.New(rand.NewSource(l.Seed + 13_000_000 + int64(d.ID)))
		if err := augment(o, parent, x, c, rng); err != nil {
			return err
		}
	}
	parent.AddDependent(x, d.ID)
	d.Parents[x] = parent.ID
	return nil
}

// ChildrenOf lists id's distinct dependents (liaison children included),
// sorted. ParentsOf lists id's distinct parents (liaison included),
// sorted. Both reflect the overlay's current wiring, so repair code can
// call them after every mutation.
func (o *Overlay) ChildrenOf(id repository.ID) []repository.ID {
	return dependentsOf(nil, o, o.Node(id))
}

// AppendChildren appends ChildrenOf(id) to dst, AppendParents appends
// ParentsOf(id): for callers on a periodic path that keep a buffer.
func (o *Overlay) AppendChildren(dst []repository.ID, id repository.ID) []repository.ID {
	return dependentsOf(dst, o, o.Node(id))
}

func (o *Overlay) AppendParents(dst []repository.ID, id repository.ID) []repository.ID {
	return distinctParents(dst, o.Node(id))
}

// Subtree returns id plus every node transitively downstream of it —
// the set a repair must not pick new parents from.
func (o *Overlay) Subtree(id repository.ID) map[repository.ID]bool {
	return subtreeOf(o, o.Node(id))
}

// ParentsOf lists id's distinct parents over all items, sorted.
func (o *Overlay) ParentsOf(id repository.ID) []repository.ID {
	return distinctParents(nil, o.Node(id))
}

// subtreeOf returns d plus every node transitively downstream of it over
// push connections (any item, liaison edges included).
func subtreeOf(o *Overlay, d *repository.Repository) map[repository.ID]bool {
	sub := map[repository.ID]bool{d.ID: true}
	queue := []repository.ID{d.ID}
	for len(queue) > 0 {
		cur := o.Node(queue[0])
		queue = queue[1:]
		for _, n := range o.Nodes {
			if !sub[n.ID] && cur.HasChild(n.ID) {
				sub[n.ID] = true
				queue = append(queue, n.ID)
			}
		}
	}
	return sub
}

// RemoveRepair departs any repository — interior nodes included — by
// cascading re-homing: every dependent's feeds through the departing node
// are re-established via Rehome (augmenting the new parents toward the
// source as needed), liaison children are re-attached, and only then is
// the node detached and marked inert. This is the repair counterpart of
// Overlay.Remove, which accepts leaves only.
//
// On error the overlay may hold a partial repair: already re-homed
// dependents keep their new parents (each individually valid), and the
// departing node keeps the rest. Validate still passes in that state; the
// caller may retry after freeing capacity.
func (l *LeLA) RemoveRepair(o *Overlay, id repository.ID) error {
	if id <= 0 || int(id) >= len(o.Nodes) {
		return fmt.Errorf("tree: unknown repository %d", id)
	}
	q := o.Node(id)
	gone := map[repository.ID]bool{id: true}

	// Detach q from its own parents first: the freed connection slots sit
	// at exactly the levels q's dependents will re-home into.
	for _, n := range o.Nodes {
		if n.ID != id {
			n.DropDependent(id)
		}
	}
	q.Parents = map[string]repository.ID{}
	q.Liaison = repository.NoID

	// Re-home every (dependent, item) feed through q, dependents in id
	// order for determinism.
	for _, depID := range dependentsOf(nil, o, q) {
		d := o.Node(depID)
		items := make([]string, 0, len(d.Parents))
		for x, pid := range d.Parents {
			if pid == id {
				items = append(items, x)
			}
		}
		sort.Strings(items)
		// Detach from q first so capacity checks and edge symmetry see the
		// post-departure state.
		q.DropDependent(depID)
		for _, x := range items {
			delete(d.Parents, x)
			if _, err := l.Rehome(o, d, x, gone); err != nil {
				return fmt.Errorf("tree: removing repository %d: %w", id, err)
			}
		}
		if d.Liaison == id {
			d.Liaison = repository.NoID
			if len(d.Parents) == 0 {
				// A need-less child keeps a liaison connection so it stays
				// augmentable; adopt it at the best live candidate.
				pid, err := l.Rehome(o, d, "", gone)
				if err != nil {
					return fmt.Errorf("tree: removing repository %d: %w", id, err)
				}
				d.Liaison = pid
			}
		}
	}

	// Detach q from its own parents and mark the slot inert, exactly like
	// a leaf departure.
	return o.Remove(id)
}

// dependentsOf appends to dst a node's distinct dependents — including
// liaison-only children, which appear in the connection set but not in
// Dependents — sorted for deterministic iteration.
func dependentsOf(dst []repository.ID, o *Overlay, q *repository.Repository) []repository.ID {
	for _, n := range o.Nodes {
		if n.ID != q.ID && q.HasChild(n.ID) {
			dst = append(dst, n.ID)
		}
	}
	return dst // o.Nodes is id-ordered, so the appended ids already are
}
