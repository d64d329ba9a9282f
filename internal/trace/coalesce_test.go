package trace

import (
	"reflect"
	"testing"

	"d3t/internal/sim"
)

func TestCoalesceTrace(t *testing.T) {
	tr := &Trace{Item: "X", Ticks: []Tick{
		{At: 0, Value: 10},
		{At: 1, Value: 11}, // window 1: superseded
		{At: 2, Value: 12}, // window 1: survivor
		{At: 3, Value: 12}, // window 2: quiet
		{At: 4, Value: 12},
		{At: 5, Value: 15}, // window 3: up...
		{At: 6, Value: 12}, // ...and back: net-zero window, all folded
		{At: 7, Value: 20}, // window 4: survivor
		{At: 8, Value: 20}, // quiet tail preserves the horizon via a guard
	}}
	got, folded := CoalesceTrace(tr, 2)
	want := []Tick{{At: 0, Value: 10}, {At: 2, Value: 12}, {At: 7, Value: 20}, {At: 8, Value: 20}}
	if folded != 3 {
		t.Errorf("folded = %d, want 3 (the 11, and the 15/12 round trip)", folded)
	}
	if !reflect.DeepEqual(got.Ticks, want) {
		t.Fatalf("coalesced ticks = %v, want %v", got.Ticks, want)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("coalesced trace invalid: %v", err)
	}
	if got.Duration() != tr.Duration() {
		t.Errorf("horizon moved: %v, want %v", got.Duration(), tr.Duration())
	}

	// Window <= 1 is the identity.
	if same, n := CoalesceTrace(tr, 1); same != tr || n != 0 {
		t.Errorf("CoalesceTrace(_, 1) did not return the input unchanged")
	}
}

// TestCoalesceTracesLeavesInputAlone: the sweep runner shares one cached
// trace set across concurrent runs, so coalescing must build new traces
// and never touch the ones it was given.
func TestCoalesceTracesLeavesInputAlone(t *testing.T) {
	set := GenerateSet(4, 200, sim.Second, 9)
	before := make([][]Tick, len(set))
	for i, tr := range set {
		before[i] = append([]Tick(nil), tr.Ticks...)
	}
	out, folded := CoalesceTraces(set, 5)
	if folded == 0 {
		t.Fatal("5-tick windows over random walks folded nothing; the test is vacuous")
	}
	for i, tr := range set {
		if !reflect.DeepEqual(tr.Ticks, before[i]) {
			t.Errorf("trace %s was modified by coalescing", tr.Item)
		}
		if out[i] == tr || out[i].Item != tr.Item || out[i].Duration() != tr.Duration() {
			t.Errorf("trace %s: coalesced copy shares the input or moved its item/horizon", tr.Item)
		}
	}
}
