package dissemination

import (
	"fmt"

	"d3t/internal/coherency"
	"d3t/internal/repository"
	"d3t/internal/sim"
	"d3t/internal/trace"
	"d3t/internal/tree"
)

// This file implements the alternative dissemination mechanisms the paper
// names as future work (Section 8): pull with a static Time-To-Refresh
// (TTR), the adaptive-TTR scheme of the authors' companion work (Srinivasan
// et al. / Bhide et al.), and lease-augmented push. They share the overlay
// and fidelity machinery with the push runner so the extension experiment
// (EXPERIMENTS.md, ext-pull) can compare fidelity against message cost
// across mechanisms.

// PullMode selects the refresh policy.
type PullMode int

const (
	// StaticTTR polls every TTR, unconditionally.
	StaticTTR PullMode = iota
	// AdaptiveTTR adjusts the polling interval per (repository, item) to
	// the observed rate of change: TTR shrinks toward TTRMin while the
	// item moves fast relative to the tolerance and relaxes toward TTRMax
	// when it is quiet.
	AdaptiveTTR
)

// String names the mode.
func (m PullMode) String() string {
	switch m {
	case StaticTTR:
		return "pull-static"
	case AdaptiveTTR:
		return "pull-adaptive"
	default:
		return fmt.Sprintf("PullMode(%d)", int(m))
	}
}

// PullConfig parameterizes a pull run.
type PullConfig struct {
	Mode PullMode
	// TTR is the static polling interval, and the initial interval in
	// adaptive mode. Default 10 s.
	TTR sim.Time
	// TTRMin/TTRMax clamp the adaptive interval. Defaults 1 s / 60 s.
	TTRMin, TTRMax sim.Time
	// Smoothing weighs the previous interval against the new estimate in
	// adaptive mode, in [0,1); default 0.5.
	Smoothing float64
	// CompDelay is the per-response computational delay at the polled
	// node; defaults to the push default (12.5 ms). Negative means zero.
	CompDelay sim.Time
}

func (c PullConfig) withDefaults() PullConfig {
	if c.TTR == 0 {
		c.TTR = 10 * sim.Second
	}
	if c.TTRMin == 0 {
		c.TTRMin = sim.Second
	}
	if c.TTRMax == 0 {
		c.TTRMax = 60 * sim.Second
	}
	if c.Smoothing == 0 {
		c.Smoothing = 0.5
	}
	c.CompDelay = defaultCompDelay(c.CompDelay)
	return c
}

// RunPull simulates pull-based coherency over the overlay: every
// repository refreshes each item it serves from its d3t parent on its TTR
// schedule. Each poll costs two messages (request and response). Fidelity
// is measured exactly as in the push runner — on the same run frame.
func RunPull(o *tree.Overlay, traces []*trace.Trace, cfg PullConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	f, err := newFrame(o, traces, nil, nil)
	if err != nil {
		return nil, err
	}

	// values[node][item] is the node's current copy. The source's entry
	// tracks the trace exactly.
	values := make([]map[string]float64, len(o.Nodes))
	for i, n := range o.Nodes {
		values[i] = make(map[string]float64)
		if n.IsSource() {
			for x, v := range f.initial {
				values[i][x] = v
			}
			continue
		}
		for _, x := range n.Items() {
			values[i][x] = f.initial[x]
		}
	}

	// Source ticks just update the source copy (and the trackers); the
	// pollers are closures, so the tick is the only typed event.
	f.engine.Handle(func(now sim.Time, _ sim.Kind, p sim.Payload) {
		f.tick(now, p.Item, p.V)
		values[repository.SourceID][f.items[p.Item]] = p.V
	})

	// One poller per (repository, served item): ask the parent, refresh,
	// reschedule.
	for _, n := range o.Repos() {
		for _, x := range n.Items() {
			pid, ok := n.Parents[x]
			if !ok {
				return nil, fmt.Errorf("dissemination: repository %d serves %s with no parent", n.ID, x)
			}
			c, _ := n.ServingTolerance(x)
			p := &poller{
				frame: f, values: values, cfg: cfg,
				node: n, parent: pid, item: x, c: c,
				rtt: o.Net.Delay[n.ID][pid],
				ttr: cfg.TTR, lastVal: f.initial[x],
			}
			if i, ok := f.index[x]; ok {
				p.track = f.byRepo[i][n.ID]
			}
			// Stagger first polls across the interval to avoid a thundering
			// herd at t=0 (deterministic: by node and item index).
			offset := sim.Time((int64(n.ID)*7919 + int64(len(x))) % int64(cfg.TTR))
			f.engine.At(offset, p.poll)
		}
	}

	return f.run(cfg.Mode.String()), nil
}

// poller is the per-(repository, item) pull state machine over the
// shared run frame (engine, stations, trackers, counters).
type poller struct {
	*frame
	values []map[string]float64
	cfg    PullConfig

	node   *repository.Repository
	parent repository.ID
	item   string
	c      coherency.Requirement
	rtt    sim.Time
	track  *coherency.Tracker // nil when the node only relays the item

	ttr      sim.Time
	lastVal  float64
	lastPoll sim.Time
}

// poll issues a request to the parent and schedules the response.
func (p *poller) poll(now sim.Time) {
	p.stats.Messages++ // request
	arriveAtParent := now + p.rtt
	p.engine.At(arriveAtParent, func(t sim.Time) {
		done := p.stations[p.parent].Acquire(t, p.cfg.CompDelay)
		p.stats.Messages++ // response
		if p.parent == repository.SourceID {
			p.stats.SourceChecks++
		} else {
			p.stats.RepoChecks++
		}
		v := p.values[p.parent][p.item]
		p.engine.At(done+p.rtt, func(t2 sim.Time) { p.receive(t2, v) })
	})
}

// receive applies the response and schedules the next poll.
func (p *poller) receive(now sim.Time, v float64) {
	p.stats.Deliveries++
	if v != p.values[p.node.ID][p.item] {
		p.values[p.node.ID][p.item] = v
		if p.track != nil {
			p.track.RepoUpdate(now, v)
		}
	}
	if p.cfg.Mode == AdaptiveTTR {
		p.adapt(now, v)
	}
	p.lastVal = v
	p.lastPoll = now
	p.engine.At(now+p.ttr, p.poll)
}

// adapt implements the adaptive-TTR rule: estimate the item's rate of
// change since the previous poll and target the interval at which the
// value would drift by half the tolerance (the safety factor guards
// against aliasing — a random walk that wandered and came back looks
// slower than it is); smooth against the previous interval, cap growth,
// and clamp to [TTRMin, TTRMax].
func (p *poller) adapt(now sim.Time, v float64) {
	elapsed := now - p.lastPoll
	if elapsed <= 0 {
		return
	}
	diff := v - p.lastVal
	if diff < 0 {
		diff = -diff
	}
	var est sim.Time
	if diff == 0 {
		est = p.ttr * 3 / 2 // quiet: back off gently
	} else {
		// Time for the value to drift by c/2 at the observed rate.
		est = sim.Time(float64(p.c) / (2 * diff) * float64(elapsed))
		if cap := p.ttr * 2; est > cap {
			est = cap // distrust large estimates from a single window
		}
	}
	a := p.cfg.Smoothing
	next := sim.Time(a*float64(p.ttr) + (1-a)*float64(est))
	if next < p.cfg.TTRMin {
		next = p.cfg.TTRMin
	}
	if next > p.cfg.TTRMax {
		next = p.cfg.TTRMax
	}
	p.ttr = next
}

// LeaseConfig parameterizes lease-augmented push (Section 8's "leases",
// after Cooperative Leases): parents push — exactly as the distributed
// algorithm — only while the dependent holds a valid lease, and dependents
// renew each (parent, item) lease every Duration.
type LeaseConfig struct {
	// Duration is the lease term. Default 60 s.
	Duration sim.Time
	// Push is the delay model for the underlying push dissemination.
	Push Config
}

// RunLease simulates lease-augmented push. Dependents renew leases
// promptly (the renewal round-trip is assumed shorter than the term), so
// fidelity matches the distributed push algorithm; the cost shows up as
// one renewal message per edge-item per term — the fidelity/overhead
// trade-off this mechanism buys: a crashed or departed dependent stops
// costing its parent anything after at most one term.
func RunLease(o *tree.Overlay, traces []*trace.Trace, cfg LeaseConfig) (*Result, error) {
	if cfg.Duration == 0 {
		cfg.Duration = 60 * sim.Second
	}
	res, err := Run(o, traces, NewDistributed(), cfg.Push)
	if err != nil {
		return nil, err
	}
	res.Protocol = "lease-push"
	// Renewal traffic: every (parent, dependent, item) edge renews once
	// per term over the horizon.
	var edgeItems uint64
	for _, n := range o.Nodes {
		for _, deps := range n.Dependents {
			edgeItems += uint64(len(deps))
		}
	}
	terms := uint64(res.Horizon / cfg.Duration)
	res.Stats.Messages += edgeItems * terms
	return res, nil
}
