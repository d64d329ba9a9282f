package tree

import (
	"fmt"
	"strings"
	"testing"

	"d3t/internal/repository"
)

// interiorNode returns a node that currently serves dependents.
func interiorNode(t *testing.T, o *Overlay) *repository.Repository {
	t.Helper()
	var best *repository.Repository
	for _, n := range o.Repos() {
		if n.NumChildren() > 0 && (best == nil || n.NumChildren() > best.NumChildren()) {
			best = n
		}
	}
	if best == nil {
		t.Fatal("fixture overlay has no interior repository")
	}
	return best
}

func TestRemoveNamesDependents(t *testing.T) {
	o, _ := dynFixture(t, 12, 12, 10, 3, 5)
	q := interiorNode(t, o)
	err := o.Remove(q.ID)
	if err == nil {
		t.Fatalf("interior removal of %d accepted", q.ID)
	}
	for _, dep := range dependentsOf(nil, o, q) {
		if !strings.Contains(err.Error(), fmt.Sprintf("%d", dep)) {
			t.Errorf("error %q does not name dependent %d", err, dep)
		}
	}
}

func TestRemoveRepairDepartsInteriorNode(t *testing.T) {
	o, l := dynFixture(t, 14, 14, 10, 4, 6)
	q := interiorNode(t, o)
	deps := dependentsOf(nil, o, q)

	if err := l.RemoveRepair(o, q.ID); err != nil {
		t.Fatalf("RemoveRepair(%d): %v", q.ID, err)
	}
	if err := o.Validate(); err != nil {
		t.Fatalf("overlay invalid after repair: %v", err)
	}
	if q.NumChildren() != 0 || len(q.Parents) != 0 || len(q.Serving) != 0 {
		t.Errorf("departed node %d not inert: %d children, %d parents, %d serving",
			q.ID, q.NumChildren(), len(q.Parents), len(q.Serving))
	}
	for _, depID := range deps {
		d := o.Node(depID)
		for x := range d.Needs {
			pid, ok := d.Parents[x]
			if !ok {
				t.Errorf("dependent %d lost its feed for %s", depID, x)
				continue
			}
			if pid == q.ID {
				t.Errorf("dependent %d still fed %s by departed node %d", depID, x, q.ID)
			}
		}
	}
}

func TestRemoveRepairIsDeterministic(t *testing.T) {
	run := func() string {
		o, l := dynFixture(t, 14, 14, 10, 4, 7)
		q := interiorNode(t, o)
		if err := l.RemoveRepair(o, q.ID); err != nil {
			t.Fatalf("RemoveRepair: %v", err)
		}
		var sb strings.Builder
		for _, n := range o.Repos() {
			for _, x := range n.Items() {
				fmt.Fprintf(&sb, "%d:%s:%d;", n.ID, x, n.Parents[x])
			}
		}
		return sb.String()
	}
	if a, b := run(), run(); a != b {
		t.Error("two identical RemoveRepair runs produced different topologies")
	}
}

func TestBackupParentsRankedAndAcyclic(t *testing.T) {
	o, l := dynFixture(t, 14, 14, 10, 4, 8)
	for _, n := range o.Repos() {
		if len(n.Needs) == 0 {
			continue
		}
		backups := l.BackupParents(o, n.ID, 5)
		if len(backups) == 0 {
			t.Errorf("repository %d (level %d) has no backup candidates", n.ID, n.Level)
			continue
		}
		seen := map[repository.ID]bool{}
		for _, b := range backups {
			if o.Node(b).Level >= n.Level {
				t.Errorf("backup %d of %d is at level %d >= %d (cycle risk)",
					b, n.ID, o.Node(b).Level, n.Level)
			}
			if seen[b] {
				t.Errorf("backup list of %d repeats %d", n.ID, b)
			}
			seen[b] = true
		}
	}
}

func TestRehomeRespectsCapacity(t *testing.T) {
	// A two-level chain where the only lower-level alternative is full:
	// re-homing must fail rather than overload it.
	o, l := dynFixture(t, 6, 6, 4, 1, 9)
	var leaf *repository.Repository
	for _, n := range o.Repos() {
		if n.Level >= 2 && len(n.Needs) > 0 {
			leaf = n
			break
		}
	}
	if leaf == nil {
		t.Skip("fixture built a flat overlay")
	}
	dead := map[repository.ID]bool{}
	for x, pid := range leaf.Parents {
		dead[pid] = true
		o.Node(pid).DropDependent(leaf.ID)
		delete(leaf.Parents, x)
	}
	// With coop limit 1 every surviving lower-level node is already full,
	// so Rehome must either find a node with spare capacity or error —
	// never panic on AddDependent.
	for x := range leaf.Needs {
		if _, err := l.Rehome(o, leaf, x, dead); err == nil {
			if err := o.Validate(); err != nil {
				t.Fatalf("rehome produced invalid overlay: %v", err)
			}
		}
		break
	}
}
