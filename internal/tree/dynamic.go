package tree

import (
	"fmt"
	"math/rand"
	"sort"

	"d3t/internal/coherency"
	"d3t/internal/repository"
)

// This file implements dynamic overlay membership (Section 4 of the
// paper): repositories join one at a time — LeLA is inherently
// incremental — and "if a repository's data needs change ... the
// algorithm is reapplied". Tightening and extending needs are handled
// in place via the same cascading augmentation the builder uses; leaf
// departure is supported directly. Re-homing an interior node's
// dependents is the one operation the paper leaves undetailed; Remove
// rejects non-leaves rather than guessing.

// Insert joins one new repository into an existing overlay built by LeLA
// (or any builder that maintains Level fields). The new repository's id
// must be the next endpoint index and the overlay's network must already
// have delay entries for it — netsim topologies are sized at generation,
// so grow the network with room for joiners.
func (l *LeLA) Insert(o *Overlay, q *repository.Repository) error {
	next := repository.ID(len(o.Nodes))
	if q.ID != next {
		return fmt.Errorf("tree: inserting repository %d, want next id %d", q.ID, next)
	}
	if q.ID > repository.ID(o.Net.Repositories) {
		return fmt.Errorf("tree: network has no endpoint for repository %d (capacity %d)",
			q.ID, o.Net.Repositories)
	}
	if q.CoopLimit < 1 {
		return fmt.Errorf("tree: repository %d offers no cooperation (limit %d)", q.ID, q.CoopLimit)
	}
	p := l.PPercent
	if p == 0 {
		p = 5
	}
	pref := l.Preference
	if pref == nil {
		pref = P1
	}
	rng := rand.New(rand.NewSource(l.Seed + int64(q.ID)))

	o.Nodes = append(o.Nodes, q)
	levels := levelsOf(o, int(q.ID))
	if _, err := l.insert(o, levels, q, p, pref, rng); err != nil {
		o.Nodes = o.Nodes[:len(o.Nodes)-1]
		return err
	}
	return nil
}

// levelsOf reconstructs the level structure from node Level fields,
// excluding the node with the given id.
func levelsOf(o *Overlay, exclude int) [][]repository.ID {
	var levels [][]repository.ID
	for _, n := range o.Nodes {
		if int(n.ID) == exclude {
			continue
		}
		for len(levels) <= n.Level {
			levels = append(levels, nil)
		}
		levels[n.Level] = append(levels[n.Level], n.ID)
	}
	for _, lvl := range levels {
		sort.Slice(lvl, func(i, j int) bool { return lvl[i] < lvl[j] })
	}
	return levels
}

// UpdateNeeds reapplies the construction algorithm for a repository whose
// client-derived needs changed (Section 4, third scenario). Three cases
// per item:
//
//   - tightened tolerance: the serving chain toward the source is
//     augmented so Eq. 1 keeps holding;
//   - new item: a feed is established from an existing parent (or the
//     liaison), cascading augmentation to the source;
//   - dropped or loosened item: the repository keeps serving at the old
//     stringency — dependents may rely on it (the paper's repositories
//     "may have to hold data beyond what their own users need").
//
// The overlay remains valid throughout; the update never rewires push
// connections, so cooperation limits cannot be violated.
func (l *LeLA) UpdateNeeds(o *Overlay, id repository.ID, needs map[string]coherency.Requirement) error {
	if id <= 0 || int(id) >= len(o.Nodes) {
		return fmt.Errorf("tree: unknown repository %d", id)
	}
	q := o.Node(id)
	rng := rand.New(rand.NewSource(l.Seed + 7_000_000 + int64(id)))

	items := make([]string, 0, len(needs))
	for x := range needs {
		items = append(items, x)
	}
	sort.Strings(items)
	for _, x := range items {
		c := needs[x]
		if c < 0 {
			return fmt.Errorf("tree: negative tolerance %v for %s", c, x)
		}
		q.Needs[x] = c
		if cur, ok := q.Serving[x]; ok {
			if cur.AtLeastAsStringentAs(c) {
				continue // already maintained stringently enough
			}
			// Tighten (not a raw map write) so the wiring generation moves
			// and any live fan-out plan re-resolves this tolerance.
			q.Tighten(x, c)
			// Tighten the feed chain so every ancestor satisfies Eq. 1.
			if pid, ok := q.Parents[x]; ok {
				parent := o.Node(pid)
				if !parent.CanServe(x, c) {
					if err := augment(o, parent, x, c, rng); err != nil {
						return err
					}
				}
				continue
			}
		}
		// New item (or held item with no feed): establish a feed through
		// the existing topology.
		q.Tighten(x, c)
		if _, ok := q.Parents[x]; ok {
			continue
		}
		// augment establishes exactly what a new item requires: a parent
		// chain feeding x at tolerance c.
		if err := augment(o, q, x, c, rng); err != nil {
			return err
		}
	}
	// Drop needs that disappeared; serving and feeds stay for dependents.
	for x := range q.Needs {
		if _, still := needs[x]; !still {
			delete(q.Needs, x)
		}
	}
	return nil
}

// Remove departs a leaf repository (one with no dependents): its parents
// drop their push connections to it. Interior nodes are rejected — the
// paper does not specify dependent re-homing, and guessing here could
// silently violate Eq. 1; use LeLA.RemoveRepair (repair.go) for interior
// departure with cascading re-homing, or re-home the named dependents
// manually before retrying.
func (o *Overlay) Remove(id repository.ID) error {
	if id <= 0 || int(id) >= len(o.Nodes) {
		return fmt.Errorf("tree: unknown repository %d", id)
	}
	q := o.Node(id)
	if q.NumChildren() > 0 {
		// Dependents are named in the canonical repo<id> form
		// (repository.ID.String), like every user-visible report.
		return fmt.Errorf("tree: %v still serves dependents %v; only leaves can depart (use RemoveRepair, or re-home them first)",
			id, dependentsOf(nil, o, q))
	}
	for _, n := range o.Nodes {
		if n == nil || n.ID == id {
			continue
		}
		n.DropDependent(id)
	}
	// Keep the slot (ids are positional) but mark the node inert.
	q.Needs = map[string]coherency.Requirement{}
	q.Serving = map[string]coherency.Requirement{}
	q.Parents = map[string]repository.ID{}
	q.Liaison = repository.NoID
	return nil
}
