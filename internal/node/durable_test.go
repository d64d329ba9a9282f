package node

import (
	"fmt"
	"math"
	"testing"

	"d3t/internal/repository"
	"d3t/internal/wal"
)

// dump flattens DumpDurable's streams into comparable strings, value
// bits spelled out so the comparison is bit-exact, not approximate.
func dump(c *Core) []string {
	var out []string
	c.DumpDurable(
		func(item string, v float64) {
			out = append(out, fmt.Sprintf("v %s %016x", item, math.Float64bits(v)))
		},
		func(dep repository.ID, item string, last float64, seeded bool) {
			out = append(out, fmt.Sprintf("e %v %s %016x %v", dep, item, math.Float64bits(last), seeded))
		})
	return out
}

func equalDumps(t *testing.T, before, after []string) {
	t.Helper()
	if len(before) != len(after) {
		t.Fatalf("dump lengths differ: %d vs %d\nbefore %v\nafter  %v", len(before), len(after), before, after)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("dump line %d differs:\nbefore %q\nafter  %q", i, before[i], after[i])
		}
	}
}

// TestDurableRecovery drives the one durability glue (Durable) the way
// all three backends do — apply, Append, Commit, die, OpenDurable over
// the same directory — and checks the kill-and-recover invariant at the
// core level: every per-item value and every edge's (last, seeded)
// filter state comes back bit-identical, whether recovery read them from
// a snapshot (restored verbatim), from the log (replayed through Apply
// with a ReplayTransport, which re-makes the same suppress decisions),
// or from both — so the next Apply makes the decision the pre-crash core
// would have made. A protocol without a core recovers values only.
func TestDurableRecovery(t *testing.T) {
	// 0.1 has no exact short decimal; 0.1+1e-9 differs from it in the
	// low bits only.
	updates := []float64{0.1, 0.1 + 1e-9, 30, 99, 105, 220, 221}
	cases := []struct {
		name          string
		snapshotEvery int
		coreless      bool
		refuse3       bool // child 3 unreachable before the crash: its edge stays unseeded
		wantReplayed  int  // log records recovery replays
	}{
		{name: "log replay", snapshotEvery: 1000, wantReplayed: len(updates)},
		{name: "snapshot verbatim", snapshotEvery: 1, wantReplayed: 0},
		{name: "snapshot plus tail", snapshotEvery: 4, wantReplayed: len(updates) - 4},
		{name: "unseeded edge through a snapshot", snapshotEvery: 1, refuse3: true},
		{name: "no core, log replay", snapshotEvery: 1000, coreless: true, wantReplayed: len(updates)},
		{name: "no core, snapshot of the value map", snapshotEvery: 1, coreless: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := wal.Options{SnapshotEvery: tc.snapshotEvery, Fsync: wal.PolicyNever}
			process := func() (*Core, map[string]float64, *Durable, *wal.Recovered) {
				var core *Core
				if !tc.coreless {
					core, _ = pair(10, 50, 80)
				}
				vals := map[string]float64{}
				d, rec, err := OpenDurable(dir, opts, core, vals)
				if err != nil {
					t.Fatal(err)
				}
				return core, vals, d, rec
			}

			core, vals, d, rec := process()
			if !rec.Empty() {
				t.Fatalf("fresh directory recovered %+v", rec)
			}
			tr := newRecord()
			if tc.refuse3 {
				tr.refuse = map[repository.ID]bool{3: true}
			}
			for _, v := range updates {
				// The ordering rule: apply first, then log.
				if core != nil {
					core.Apply("X", v, tr)
				}
				vals["X"] = v
				d.Append("X", v)
				d.Commit()
			}
			d.Close()
			if err := d.Err(); err != nil {
				t.Fatal(err)
			}

			core2, vals2, d2, rec2 := process()
			defer d2.Close()
			if len(rec2.Batches) != tc.wantReplayed {
				t.Errorf("recovery replayed %d records, want %d", len(rec2.Batches), tc.wantReplayed)
			}
			last := updates[len(updates)-1]
			if got := vals2["X"]; len(vals2) != 1 || math.Float64bits(got) != math.Float64bits(last) {
				t.Errorf("recovered value map %v, want X=%v", vals2, last)
			}
			if tc.coreless {
				if len(rec2.State.Edges) != 0 {
					t.Errorf("coreless snapshot carries edges: %+v", rec2.State.Edges)
				}
				return
			}
			before := dump(core)
			if len(before) == 0 {
				t.Fatal("nothing dumped")
			}
			equalDumps(t, before, dump(core2))
			if tc.refuse3 && len(before) != 2 {
				t.Errorf("dump %v, want the value and the one seeded edge", before)
			}
			// And the decisions agree: whatever the pre-crash core does with
			// the next update, the recovered core does too.
			for _, v := range []float64{last + 1, last + 45, last + 200} {
				a, _ := core.Apply("X", v, newRecord())
				b, _ := core2.Apply("X", v, newRecord())
				if a != b {
					t.Errorf("update %v: pre-crash core forwards %d copies, recovered core %d", v, a, b)
				}
			}
		})
	}
}

// TestDurableLatchesFirstError: a nil Durable is the WAL-off state, and
// a failing log latches its first error without stopping the caller.
func TestDurableLatchesFirstError(t *testing.T) {
	var off *Durable
	off.Append("X", 1)
	off.Commit()
	off.Close()
	if err := off.Err(); err != nil {
		t.Fatalf("nil Durable reports %v", err)
	}

	core, _ := pair(10, 50, 0)
	d, _, err := OpenDurable(t.TempDir(), wal.Options{Fsync: wal.PolicyNever}, core, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	d.Append("X", 1)
	d.Commit() // commit on a closed log
	first := d.Err()
	if first == nil {
		t.Fatal("commit on a closed log latched no error")
	}
	d.Append("X", 2)
	d.Commit()
	if d.Err() != first {
		t.Errorf("latched error replaced: %v then %v", first, d.Err())
	}
}

// TestRestoreEdgeVerbatim: RestoreEdge keeps the recovered seeded flag
// as-is, unlike ResetEdge which models a completed resync.
func TestRestoreEdgeVerbatim(t *testing.T) {
	core, _ := pair(10, 50, 0)
	core.RestoreEdge(2, "X", 5, false)
	tr := newRecord()
	// The edge must still be unseeded: first push always forwards.
	if fwd, _ := core.Apply("X", 5.0001, tr); fwd != 1 {
		t.Fatal("unseeded restored edge suppressed the first push")
	}
	// Unknown dependents are ignored, not invented.
	core.RestoreEdge(99, "X", 1, true)
	core.RestoreEdge(2, "nosuch", 1, true)
}
