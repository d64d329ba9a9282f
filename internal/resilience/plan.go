// Package resilience makes the dissemination overlay survive repository
// failures and churn. It provides three pieces, wired through every layer
// of the system:
//
//   - Failure injection: a deterministic FaultPlan — single crashes,
//     crash-and-rejoin, or seeded Poisson churn — generated per scenario
//     like workloads and selectable via core.Config.Faults and the -faults
//     command flags.
//   - Detection: the resilient simulation runner (runner.go) models
//     heartbeats and a silence window on sim events; a dependent declares
//     its parent dead after DetectK heartbeat intervals with no push and
//     no heartbeat. The live and netio runtimes detect through real
//     timeouts and connection errors instead.
//   - Repair: every repository precomputes a ranked backup-parent list
//     (tree.LeLA.BackupParents); on detection its dependents re-home to
//     the first live backup with capacity, falling back to a full
//     re-ranking (tree.LeLA.Rehome) that cascades augmentation toward the
//     source.
//
// The paper (Section 7/8) leaves failure handling as future work; this
// package supplies it while preserving the construction algorithm's
// invariants, measured with the same fidelity metric as every other
// experiment.
package resilience

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"d3t/internal/repository"
	"d3t/internal/sim"
)

// AutoInterior marks a fault whose victim is resolved at run time: the
// repository currently serving the most dependents (the interior node
// whose failure severs the most downstream feeds).
const AutoInterior repository.ID = -2

// Fault is one scheduled failure: Node crashes at At and, if RejoinAt is
// nonzero, rejoins (warm restart with stale copies) at RejoinAt. Kill
// marks a process death instead of a network-style outage: the node's
// in-memory state is lost, and its rejoin recovers from disk when the
// run has durability configured — cold, serving nothing, when it does
// not (the rejoin-cold bug the WAL exists to fix).
type Fault struct {
	Node     repository.ID
	At       sim.Time
	RejoinAt sim.Time
	Kill     bool
}

// Plan is a deterministic failure schedule, sorted by crash time.
type Plan struct {
	// Spec is the string the plan was parsed from, for labeling output.
	Spec string
	// Faults are the scheduled failures in crash-time order.
	Faults []Fault
}

// Empty reports whether the plan injects no faults.
func (p *Plan) Empty() bool { return p == nil || len(p.Faults) == 0 }

// Merge folds another plan's faults (a scenario's regional failures)
// into this one, keeping crash-time order; faults at the same time keep
// p's before o's. Either side may be nil or empty.
func (p *Plan) Merge(o *Plan) *Plan {
	if o.Empty() {
		return p
	}
	if p.Empty() {
		return o
	}
	merged := &Plan{Spec: p.Spec + "+" + o.Spec}
	merged.Faults = append(append(merged.Faults, p.Faults...), o.Faults...)
	sort.SliceStable(merged.Faults, func(i, j int) bool {
		return merged.Faults[i].At < merged.Faults[j].At
	})
	return merged
}

// ParsePlan builds a fault plan from a spec string, sized to a run of
// `repos` repositories and `ticks` trace ticks at `interval`. Specs:
//
//	"" | "none"                     no faults
//	crash:<node>@<tick>             node (id, or "max" for the busiest
//	                                interior node) crashes at the tick
//	crash:<node>@<tick>+<down>      ...and rejoins <down> ticks later
//	kill:<node>@<tick>[+<down>]     like crash, but a process death: all
//	                                in-memory state is lost, and the
//	                                rejoin recovers from disk (WAL +
//	                                snapshot) when durability is on —
//	                                cold when it is not
//	churn:<rate>[:<meandown>]       seeded Poisson churn: <rate> expected
//	                                crashes per 100 ticks across the
//	                                population, each down for an
//	                                exponential time with mean <meandown>
//	                                ticks (default 50)
//
// The same spec, sizes and seed always yield the same plan.
func ParsePlan(spec string, repos, ticks int, interval sim.Time, seed int64) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return nil, nil
	}
	if repos < 1 || ticks < 1 || interval <= 0 {
		return nil, fmt.Errorf("resilience: cannot size plan %q for %d repos x %d ticks", spec, repos, ticks)
	}
	kind, rest, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("resilience: malformed fault spec %q (want kind:params)", spec)
	}
	switch kind {
	case "crash":
		return parseCrash(spec, rest, repos, ticks, interval, false)
	case "kill":
		return parseCrash(spec, rest, repos, ticks, interval, true)
	case "churn":
		return parseChurn(spec, rest, repos, ticks, interval, seed)
	default:
		return nil, fmt.Errorf("resilience: unknown fault kind %q in %q", kind, spec)
	}
}

func parseCrash(spec, rest string, repos, ticks int, interval sim.Time, kill bool) (*Plan, error) {
	nodePart, timePart, ok := strings.Cut(rest, "@")
	if !ok {
		return nil, fmt.Errorf("resilience: crash spec %q needs <node>@<tick>", spec)
	}
	node := AutoInterior
	if nodePart != "max" {
		id, err := strconv.Atoi(nodePart)
		if err != nil || id < 1 || id > repos {
			return nil, fmt.Errorf("resilience: crash node %q not a repository id in 1..%d (or \"max\")", nodePart, repos)
		}
		node = repository.ID(id)
	}
	tickPart, downPart, hasDown := strings.Cut(timePart, "+")
	tick, err := strconv.Atoi(tickPart)
	if err != nil || tick < 1 || tick >= ticks {
		return nil, fmt.Errorf("resilience: crash tick %q outside 1..%d", tickPart, ticks-1)
	}
	f := Fault{Node: node, At: sim.Time(tick) * interval, Kill: kill}
	if hasDown {
		down, err := strconv.Atoi(downPart)
		if err != nil || down < 1 {
			return nil, fmt.Errorf("resilience: rejoin delay %q not a positive tick count", downPart)
		}
		f.RejoinAt = f.At + sim.Time(down)*interval
	}
	return &Plan{Spec: spec, Faults: []Fault{f}}, nil
}

func parseChurn(spec, rest string, repos, ticks int, interval sim.Time, seed int64) (*Plan, error) {
	ratePart, downPart, hasDown := strings.Cut(rest, ":")
	rate, err := strconv.ParseFloat(ratePart, 64)
	if err != nil || rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		// Non-finite rates must be rejected up front: an infinite rate
		// makes the exponential arrival step zero and the generator loop
		// below would never advance (found by FuzzParsePlan).
		return nil, fmt.Errorf("resilience: churn rate %q not a finite non-negative number", ratePart)
	}
	// Cap the expected fault volume: rate is crashes per 100 ticks, so a
	// pathological rate would materialize an unbounded schedule (also a
	// FuzzParsePlan find). A million scheduled faults is far beyond any
	// meaningful run.
	if expected := rate / 100 * float64(ticks); expected > 1e6 {
		return nil, fmt.Errorf("resilience: churn rate %q schedules ~%.0f faults over %d ticks; the cap is 1e6",
			ratePart, expected, ticks)
	}
	meanDown := 50.0
	if hasDown {
		meanDown, err = strconv.ParseFloat(downPart, 64)
		if err != nil || meanDown <= 0 || math.IsNaN(meanDown) || math.IsInf(meanDown, 0) {
			return nil, fmt.Errorf("resilience: churn mean downtime %q not a finite positive tick count", downPart)
		}
	}
	plan := &Plan{Spec: spec}
	if rate == 0 {
		return plan, nil
	}
	rng := rand.New(rand.NewSource(seed))
	perTick := rate / 100
	downUntil := make(map[repository.ID]float64, repos)
	for t := rng.ExpFloat64() / perTick; t < float64(ticks); t += rng.ExpFloat64() / perTick {
		node := repository.ID(1 + rng.Intn(repos))
		down := meanDown * rng.ExpFloat64()
		if downUntil[node] >= t {
			continue // still down; the failure hits an already-failed node
		}
		downUntil[node] = t + down
		rejoin := t + down
		f := Fault{Node: node, At: sim.Time(t * float64(interval))}
		if rejoin < float64(ticks) {
			f.RejoinAt = sim.Time(rejoin * float64(interval))
		}
		plan.Faults = append(plan.Faults, f)
	}
	sort.SliceStable(plan.Faults, func(i, j int) bool { return plan.Faults[i].At < plan.Faults[j].At })
	return plan, nil
}
