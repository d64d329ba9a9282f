package node

import (
	"fmt"
	"testing"

	"d3t/internal/coherency"
	"d3t/internal/repository"
	"d3t/internal/sim"
)

// record is a test transport: it remembers every send and can refuse
// dependents to model unreachable peers.
type record struct {
	now     sim.Time
	deps    []string // "dep:item=value" of accepted dependent sends
	clients []string // "name:item=value(resync)" of client sends
	refuse  map[repository.ID]bool
	// refuseAfter, when >= 0, accepts that many dependent sends of one
	// Apply and refuses the rest — the transport mid-crash.
	refuseAfter int
	sent        int
}

func newRecord() *record { return &record{refuseAfter: -1} }

func (r *record) Now() sim.Time { return r.now }

func (r *record) SendToDependent(dep repository.ID, item string, v float64, resync bool) bool {
	if r.refuse[dep] {
		return false
	}
	if r.refuseAfter >= 0 && r.sent >= r.refuseAfter {
		return false
	}
	r.sent++
	tag := ""
	if resync {
		tag = "*"
	}
	r.deps = append(r.deps, formatSend(dep.String(), item, v)+tag)
	return true
}

func (r *record) SendToClient(s *Session, item string, v float64, resync bool) {
	tag := ""
	if resync {
		tag = "*"
	}
	r.clients = append(r.clients, formatSend(s.Name(), item, v)+tag)
}

func formatSend(who, item string, v float64) string {
	return fmt.Sprintf("%s:%s=%g", who, item, v)
}

// pair builds parent(1, tolerance pTol) -> child(2, tolerance cTol) for
// item X, plus a second child 3 at c2Tol when nonzero.
func pair(pTol, cTol, c2Tol coherency.Requirement) (*Core, *repository.Repository) {
	parent := repository.New(1, 4)
	parent.Serving["X"] = pTol
	child := repository.New(2, 4)
	child.Serving["X"] = cTol
	peers := map[repository.ID]*repository.Repository{2: child}
	parent.AddDependent("X", 2)
	if c2Tol > 0 {
		child2 := repository.New(3, 4)
		child2.Serving["X"] = c2Tol
		peers[3] = child2
		parent.AddDependent("X", 3)
	}
	core := New(parent, func(id repository.ID) *repository.Repository { return peers[id] }, Options{})
	return core, parent
}

// TestFirstPushRule is the regression test for the reconciled
// seeded/unseeded semantics: an unseeded edge always forwards the first
// update (whatever its magnitude), and after any push — resync included —
// Eqs. 3 and 7 decide. The live runtime historically spelled this
// `!seeded || ShouldForward` and the TCP runtime `seeded && !`; the core
// states it once.
func TestFirstPushRule(t *testing.T) {
	core, _ := pair(10, 50, 0)
	tr := newRecord()

	// Unseeded edge: even a tiny move (well inside the child's tolerance
	// 50) must be forwarded.
	if fwd, checks := core.Apply("X", 1, tr); fwd != 1 || checks != 1 {
		t.Fatalf("unseeded first update: fwd=%d checks=%d, want 1,1", fwd, checks)
	}
	// Now seeded at 1: a move inside cDep-cSelf = 40 is suppressed...
	if fwd, _ := core.Apply("X", 30, tr); fwd != 0 {
		t.Fatalf("sub-threshold update forwarded after seeding")
	}
	// ...and one beyond it is forwarded.
	if fwd, _ := core.Apply("X", 99, tr); fwd != 1 {
		t.Fatalf("super-threshold update suppressed")
	}
	want := []string{"repo2:X=1", "repo2:X=99"}
	if len(tr.deps) != 2 || tr.deps[0] != want[0] || tr.deps[1] != want[1] {
		t.Fatalf("dependent sends = %v, want %v", tr.deps, want)
	}
}

// TestFirstPushAfterResync: the first update after a resync filters
// against the resynced value — it is suppressed when within tolerance of
// it, forwarded when beyond — never unconditionally delivered or
// unconditionally withheld.
func TestFirstPushAfterResync(t *testing.T) {
	core, _ := pair(10, 50, 0)
	tr := newRecord()
	core.Seed("X", 100)
	core.Apply("X", 200, tr) // seeded edge moves to 200

	// Failover-style resync: the edge state re-seeds to the synced value.
	core.SetValue("X", 250)
	core.ResyncDependent(2, tr)
	if last := tr.deps[len(tr.deps)-1]; last != "repo2:X=250*" {
		t.Fatalf("resync push = %q, want repo2:X=250*", last)
	}

	// First post-resync update within cDep-cSelf of 250: suppressed.
	if fwd, _ := core.Apply("X", 270, tr); fwd != 0 {
		t.Fatal("first post-resync update within tolerance was forwarded")
	}
	// Beyond the band: forwarded.
	if fwd, _ := core.Apply("X", 320, tr); fwd != 1 {
		t.Fatal("first violating post-resync update was suppressed")
	}
}

// TestResyncReDeliversLastPushedValue: a dependent that re-homes back
// onto a parent it already knew (crash and rejoin) still receives the
// parent's current copy, even when it equals the value last pushed over
// the old edge — the dependent may have lost or missed state while away,
// and the overlay cannot tell.
func TestResyncReDeliversLastPushedValue(t *testing.T) {
	core, _ := pair(10, 50, 0)
	tr := newRecord()
	core.Seed("X", 100)
	core.Apply("X", 200, tr) // edge last-pushed = 200, value = 200

	tr.deps = nil
	core.ResyncDependent(2, tr)
	if len(tr.deps) != 1 || tr.deps[0] != "repo2:X=200*" {
		t.Fatalf("resync sends = %v, want the unconditional re-delivery of 200", tr.deps)
	}
}

// TestCrashDuringFanOut: when the transport loses a dependent mid-fan-out
// (the TCP child hung up, the peer crashed), the unreachable edge's
// filter state must not advance — the dependent catches up on the next
// qualifying update — while the reachable edges proceed normally.
func TestCrashDuringFanOut(t *testing.T) {
	core, _ := pair(10, 50, 60)
	tr := newRecord()
	core.Seed("X", 100)

	// Both children need the jump to 200; the transport accepts only the
	// first send, then "crashes".
	tr.refuseAfter = 1
	if fwd, checks := core.Apply("X", 200, tr); fwd != 1 || checks != 2 {
		t.Fatalf("fwd=%d checks=%d, want 1 accepted of 2 checked", fwd, checks)
	}
	if len(tr.deps) != 1 || tr.deps[0] != "repo2:X=200" {
		t.Fatalf("sends = %v, want only repo2", tr.deps)
	}

	// Transport recovers. A small further move (within repo3's band of
	// its last *received* value 100) must still be forwarded to repo3 —
	// its edge never advanced — while repo2's edge suppresses it.
	tr.refuseAfter = -1
	tr.deps = nil
	if fwd, _ := core.Apply("X", 210, tr); fwd != 1 {
		t.Fatalf("fwd=%d, want the lost child to catch up", fwd)
	}
	if len(tr.deps) != 1 || tr.deps[0] != "repo3:X=210" {
		t.Fatalf("sends = %v, want repo3 only", tr.deps)
	}
}

// TestMigrationRacingRedirect: a session migrating onto a node that
// concurrently filled to its cap is redirected (counted), keeps its
// carried state, and a later admission resyncs only values that differ —
// the redirect does not wipe or duplicate the client's copies.
func TestMigrationRacingRedirect(t *testing.T) {
	coreA, _ := pair(10, 50, 0)
	coreB, _ := pair(10, 50, 0)
	coreB.opts.SessionCap = 1
	tr := newRecord()
	coreA.Seed("X", 100)
	coreB.Seed("X", 100)

	s := NewSession("mobile", map[string]coherency.Requirement{"X": 80})
	if _, err := coreA.Admit(s, tr); err != nil {
		t.Fatal(err)
	}
	coreA.Apply("X", 300, tr) // delivered: session copy now 300
	coreB.Apply("X", 300, newRecord())

	// The rival session wins coreB's only slot first.
	if _, err := coreB.Admit(NewSession("rival", map[string]coherency.Requirement{"X": 80}), tr); err != nil {
		t.Fatal(err)
	}

	// coreA dies; the migration's admission attempt races the rival and
	// loses: redirected, state intact.
	moved := coreA.DropSession("mobile")
	if moved != s {
		t.Fatal("DropSession did not return the admitted session")
	}
	if reason, err := coreB.Admit(moved, tr); err == nil || reason != RejectCap {
		t.Fatalf("over-cap migration admitted (reason %v)", reason)
	}
	if coreB.Redirected() != 1 {
		t.Fatalf("redirect not counted: %d", coreB.Redirected())
	}
	if v, ok := moved.Value("X"); !ok || v != 300 {
		t.Fatalf("redirected session lost its copy: %v %v", v, ok)
	}

	// The rival departs; the retry lands. The session already holds 300 —
	// coreB's current copy — so the admission resyncs nothing.
	coreB.DropSession("rival")
	tr.clients = nil
	if _, err := coreB.Admit(moved, tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.clients) != 0 {
		t.Fatalf("equal-value resync pushed %v, want nothing", tr.clients)
	}
	if moved.Resyncs() != 1 { // the initial admission's catch-up only
		t.Fatalf("resyncs = %d, want 1", moved.Resyncs())
	}

	// And had the value moved while detached, the resync delivers it.
	coreB.DropSession("mobile")
	coreB.Apply("X", 500, newRecord())
	tr.clients = nil
	if _, err := coreB.Admit(moved, tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.clients) != 1 || tr.clients[0] != "mobile:X=500*" {
		t.Fatalf("post-migration resync = %v, want mobile:X=500*", tr.clients)
	}
}

// TestSessionAdmissionPolicy covers the strict per-node rule: duplicate
// names, the cap, serving stringency, and the source's serve-anything
// exemption.
func TestSessionAdmissionPolicy(t *testing.T) {
	core, _ := pair(10, 50, 0)
	tr := newRecord()
	wants := func(tol coherency.Requirement) map[string]coherency.Requirement {
		return map[string]coherency.Requirement{"X": tol}
	}
	if reason := core.CanAdmit("a", wants(20)); reason != RejectNone {
		t.Fatalf("admissible session rejected: %v", reason)
	}
	// Tighter than the node's own tolerance 10's guarantee? The node
	// serves X at 10; a client demanding 5 is out of reach.
	if reason := core.CanAdmit("a", wants(5)); reason != RejectServing {
		t.Fatalf("under-served session not rejected: %v", reason)
	}
	if reason := core.CanAdmit("a", map[string]coherency.Requirement{"Y": 100}); reason != RejectServing {
		t.Fatalf("unknown-item session not rejected: %v", reason)
	}
	if _, err := core.Admit(NewSession("a", wants(20)), tr); err != nil {
		t.Fatal(err)
	}
	if reason := core.CanAdmit("a", wants(20)); reason != RejectDuplicate {
		t.Fatalf("duplicate name not rejected: %v", reason)
	}
	core.opts.SessionCap = 1
	if reason := core.CanAdmit("b", wants(20)); reason != RejectCap {
		t.Fatalf("over-cap session not rejected: %v", reason)
	}

	// The source serves any tolerance.
	src := New(repository.New(repository.SourceID, 4), nil, Options{ServeOnly: true})
	if reason := src.CanAdmit("c", wants(0.0001)); reason != RejectNone {
		t.Fatalf("source rejected a stringent session: %v", reason)
	}
}

// TestPlanTracksRewiring: precomputed plans must follow overlay repairs —
// dropped dependents stop receiving, adopted ones start, and a dependent
// that tightens its tolerance mid-run is filtered against the new value.
func TestPlanTracksRewiring(t *testing.T) {
	core, parent := pair(10, 50, 60)
	tr := newRecord()
	core.Seed("X", 100)

	// Drop repo3: only repo2 receives.
	parent.DropDependent(3)
	if fwd, checks := core.Apply("X", 200, tr); fwd != 1 || checks != 1 {
		t.Fatalf("after drop: fwd=%d checks=%d, want 1,1", fwd, checks)
	}

	// repo2 tightens from 50 to 15: a move of 20 now violates it.
	dep := core.peers(2)
	dep.Tighten("X", 15)
	tr.deps = nil
	if fwd, _ := core.Apply("X", 220, tr); fwd != 1 {
		t.Fatalf("tightened dependent did not receive: %v", tr.deps)
	}
}

// TestServeOnlyCoreSkipsDependents: the fleet's serve-only cores must
// never touch the dependent pipeline even when the bound repository has
// overlay dependents.
func TestServeOnlyCoreSkipsDependents(t *testing.T) {
	parent := repository.New(1, 4)
	parent.Serving["X"] = 10
	parent.AddDependent("X", 2)
	core := New(parent, nil, Options{ServeOnly: true})
	tr := newRecord()
	if fwd, checks := core.Apply("X", 100, tr); fwd != 0 || checks != 0 {
		t.Fatalf("serve-only core fanned to dependents: fwd=%d checks=%d", fwd, checks)
	}
	if v, ok := core.Value("X"); !ok || v != 100 {
		t.Fatalf("serve-only core did not record the value: %v %v", v, ok)
	}
}

// TestSessionFanOutFilter: sessions are filtered with the node's own
// tolerance as cSelf (Eqs. 3 and 7 at the leaf), in sorted name order.
func TestSessionFanOutFilter(t *testing.T) {
	core, _ := pair(10, 50, 0)
	tr := newRecord()
	core.Seed("X", 100)
	for _, name := range []string{"zoe", "amy"} {
		if _, err := core.Admit(NewSession(name, map[string]coherency.Requirement{"X": 80}), tr); err != nil {
			t.Fatal(err)
		}
	}
	tr.clients = nil
	// |170-100| = 70 <= 80-10: safe for both sessions.
	core.Apply("X", 170, tr)
	if len(tr.clients) != 0 {
		t.Fatalf("sub-threshold update delivered: %v", tr.clients)
	}
	// |180-100| = 80 > 80-10 via Eq. 7's guard band: delivered, amy first.
	core.Apply("X", 175, tr)
	if len(tr.clients) != 2 || tr.clients[0] != "amy:X=175" || tr.clients[1] != "zoe:X=175" {
		t.Fatalf("fan-out = %v, want amy then zoe at 175", tr.clients)
	}
	amy := core.Session("amy")
	if amy.Delivered() != 1 || amy.Filtered() != 1 {
		t.Fatalf("amy counters delivered=%d filtered=%d, want 1,1", amy.Delivered(), amy.Filtered())
	}
}

// TestEdgeDecisions: the parity instrumentation tallies exactly the
// filter decisions made.
func TestEdgeDecisions(t *testing.T) {
	core, _ := pair(10, 50, 0)
	tr := newRecord()
	core.Seed("X", 100)
	core.Apply("X", 120, tr) // suppressed
	core.Apply("X", 200, tr) // forwarded
	core.Apply("X", 210, tr) // suppressed
	d := core.EdgeDecisions()["X"]
	if d.Forwarded != 1 || d.Suppressed != 2 {
		t.Fatalf("decisions = %+v, want 1 forwarded, 2 suppressed", d)
	}
}

func TestShardOf(t *testing.T) {
	if got := ShardOf("anything", 1); got != 0 {
		t.Fatalf("ShardOf(_, 1) = %d, want 0", got)
	}
	if got := ShardOf("anything", 0); got != 0 {
		t.Fatalf("ShardOf(_, 0) = %d, want 0", got)
	}
	// Stable and in range.
	for _, shards := range []int{2, 4, 8} {
		seen := make(map[int]bool)
		for _, item := range []string{"I0", "I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8", "I9"} {
			s := ShardOf(item, shards)
			if s < 0 || s >= shards {
				t.Fatalf("ShardOf(%q, %d) = %d out of range", item, shards, s)
			}
			if s != ShardOf(item, shards) {
				t.Fatalf("ShardOf(%q, %d) unstable", item, shards)
			}
			seen[s] = true
		}
		if len(seen) < 2 {
			t.Errorf("ShardOf over 10 items used %d of %d shards; the hash does not spread", len(seen), shards)
		}
	}
}
