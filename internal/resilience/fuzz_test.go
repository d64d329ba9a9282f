package resilience

import (
	"testing"

	"d3t/internal/sim"
)

// FuzzParsePlan throws arbitrary specs and sizes at the fault-plan
// grammar. The parser must never panic or hang, and every plan it does
// accept must be well-formed: sorted by crash time, victims within the
// population, rejoins after crashes. Two of the guards it exercises were
// fuzz finds: a non-finite churn rate made the Poisson generator loop
// forever (the arrival step collapsed to zero), and a pathological rate
// materialized an unbounded fault schedule. The same grammar schedules
// session churn over a session population (core.Config.SessionChurn),
// so the corpus carries session-churn specs too: there the serving
// fleet indexes its sessions with Fault.Node - 1, relying on the
// ordering and range this harness checks.
func FuzzParsePlan(f *testing.F) {
	for _, spec := range []string{
		"", "none",
		"crash:3@50", "crash:max@50", "crash:3@50+100", "crash:1@1+1",
		"kill:3@50", "kill:max@50+100", "kill:@", "kill:0@0",
		"churn:2", "churn:2:30", "churn:0", "churn:0.5:0.5",
		"crash:@", "crash:0@0", "crash:3@-1", "crash:3@50+0",
		"churn:-1", "churn:Inf", "churn:NaN", "churn:1e300", "churn:2:Inf",
		"churn:2:NaN", "churn:2:-5", "bogus:1", "crash", ":", "crash:3@50+x",
	} {
		f.Add(spec, 10, 100)
	}
	for _, spec := range []string{ // session churn over 50 sessions
		"", "none",
		"crash:1@10", "crash:5@10+20", "churn:5", "churn:5:40", "churn:0.1:0.1",
		"crash:max@10", "churn:Inf", "churn:NaN:1", "churn:1e308", "leave:1@2",
		"crash:1@", "crash:@1", "churn::", "churn:5:",
	} {
		f.Add(spec, 50, 200)
	}
	f.Fuzz(func(t *testing.T, spec string, repos, ticks int) {
		// The harness sizes the run within realistic bounds; the spec
		// string is the fuzzed surface.
		repos = 1 + abs(repos)%1000
		ticks = 2 + abs(ticks)%10000
		plan, err := ParsePlan(spec, repos, ticks, sim.Second, 1)
		if err != nil {
			return
		}
		if plan == nil {
			return // "" / "none"
		}
		horizon := sim.Time(ticks) * sim.Second
		for i, ft := range plan.Faults {
			if i > 0 && ft.At < plan.Faults[i-1].At {
				t.Fatalf("spec %q: fault %d at %v before fault %d at %v", spec, i, ft.At, i-1, plan.Faults[i-1].At)
			}
			if ft.Node != AutoInterior && (ft.Node < 1 || int(ft.Node) > repos) {
				t.Fatalf("spec %q: fault %d victim %v outside 1..%d", spec, i, ft.Node, repos)
			}
			if ft.At <= 0 || ft.At >= horizon+sim.Second {
				t.Fatalf("spec %q: fault %d at %v outside the run", spec, i, ft.At)
			}
			if ft.RejoinAt != 0 && ft.RejoinAt <= ft.At {
				t.Fatalf("spec %q: fault %d rejoins at %v, not after its crash at %v", spec, i, ft.RejoinAt, ft.At)
			}
		}
		if len(plan.Faults) > 1_100_000 {
			t.Fatalf("spec %q: %d faults exceeds the schedule cap", spec, len(plan.Faults))
		}
		// The plan must be deterministic in its inputs.
		again, err := ParsePlan(spec, repos, ticks, sim.Second, 1)
		if err != nil || again == nil || len(again.Faults) != len(plan.Faults) {
			t.Fatalf("spec %q: re-parse diverged (%v)", spec, err)
		}
		for i := range plan.Faults {
			if plan.Faults[i] != again.Faults[i] {
				t.Fatalf("spec %q: fault %d differs across parses", spec, i)
			}
		}
	})
}

func abs(v int) int {
	if v < 0 {
		if v == -v { // math.MinInt
			return 0
		}
		return -v
	}
	return v
}
