package dissemination

import (
	"testing"

	"d3t/internal/netsim"
	"d3t/internal/sim"
)

// TestPlainRunAllocBudget is the tripwire for the event path's steady
// state: with a value-typed event queue, the source feed off the heap and
// every protocol reusing its forward buffer, running a loop allocates
// next to nothing per event — what remains is warm-up (the heap slice,
// the cores' fan-out plans) and the result. Deterministic, so it needs no
// timing: the set-up's allocations (NewLoop) are measured on their own
// and taken off.
func TestPlainRunAllocBudget(t *testing.T) {
	fx := buildFixture(t, 20, 12, 3, 0.6, netsim.Uniform(21, sim.Milliseconds(40)), 2000, 3)
	for _, newProtocol := range []func() Protocol{
		func() Protocol { return NewDistributed() },
		func() Protocol { return NewCentralized() },
		func() Protocol { return NewAllPush() },
	} {
		var events uint64
		setUp := testing.AllocsPerRun(3, func() {
			if _, err := NewLoop(fx.overlay, fx.traces, newProtocol(), Config{}); err != nil {
				t.Fatal(err)
			}
		})
		total := testing.AllocsPerRun(3, func() {
			l, err := NewLoop(fx.overlay, fx.traces, newProtocol(), Config{})
			if err != nil {
				t.Fatal(err)
			}
			events = l.Run(nil).Stats.Events
		})
		perEvent := (total - setUp) / float64(events)
		t.Logf("%s: %.0f allocations over %d events (%.4f per event), set-up %.0f",
			newProtocol().Name(), total-setUp, events, perEvent, setUp)
		if events < 10000 || perEvent >= 0.05 {
			t.Errorf("%s: %.4f allocations per event over %d events, want < 0.05 over at least 10000",
				newProtocol().Name(), perEvent, events)
		}
	}
}
