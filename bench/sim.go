package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"d3t"
)

// simWorkload is one of the two simulator workloads: RunExperiment calls
// on consecutive seeds, timed from outside.
type simWorkload struct {
	name string
	// config builds the experiment for one seed.
	config func(seed int64, scale simScale) d3t.Config
	// reference is the work (update copies, see simRun.updates) of the
	// pinned seed-1 run. Times are reported per reference experiment, so
	// that the seed's share in how much traffic an experiment simulates
	// does not show up as noise in the time.
	reference float64
}

// simScale shrinks the simulator workloads for the smoke test; the zero
// value is full size.
type simScale struct {
	ticks    int
	sessions int
}

var simWorkloads = []simWorkload{
	{name: "sim-plain", reference: 925004,
		config: func(seed int64, sc simScale) d3t.Config {
			// Paper scale (100 repositories, 600 routers, 100 items) over a
			// quarter of the paper's 10000 ticks: an experiment then takes
			// about a second, so a run fits several rounds of its seeds and
			// can tell a slow host from a slow simulator.
			cfg := d3t.DefaultConfig()
			cfg.Seed, cfg.Ticks = seed, 2500
			if sc.ticks > 0 {
				cfg.Ticks = sc.ticks
			}
			return cfg
		}},
	{name: "sim-fleet", reference: 66200 + 3469354 + 12407668,
		config: func(seed int64, sc simScale) d3t.Config {
			cfg := d3t.DefaultConfig()
			cfg.Seed = seed
			cfg.Repositories, cfg.Routers, cfg.Items = 50, 300, 50
			// 120 ticks, not the 1000 of the sizing probe: one experiment
			// then takes about a second and a half instead of twelve, so a
			// run fits several rounds. Delivery to the sessions still
			// dominates (16 M watch checks against 0.1 M engine events).
			cfg.Ticks = 120
			cfg.VirtualSessions, cfg.ItemsPerClient = 200000, 3
			cfg.Faults = "churn:2:60"
			if sc.ticks > 0 {
				cfg.Ticks = sc.ticks
			}
			if sc.sessions > 0 {
				cfg.VirtualSessions = sc.sessions
			}
			return cfg
		}},
}

// simRun is one timed RunExperiment.
type simRun struct {
	seed  int64
	wall  time.Duration
	alloc uint64
	out   *d3t.Outcome
}

// updates is the experiment's work in update copies: messages pushed over
// overlay edges plus, with a fleet, the per-session decisions made on
// them. Both are fixed by the algorithm and the seed, not by how the
// simulator is built, which events are not: a leaner engine may run
// fewer events for the same output.
func (r simRun) updates() float64 {
	n := float64(r.out.Stats.Messages)
	if v := r.out.VServe; v != nil {
		n += float64(v.Delivered + v.Filtered)
	}
	return n
}

// counts renders every count of the outcome; two runs of one seed must
// agree on all of them.
func (r simRun) counts() string {
	s := fmt.Sprintf("seed %d loss %.9f stats %+v", r.seed, r.out.LossPercent, r.out.Stats)
	if v := r.out.VServe; v != nil {
		s += fmt.Sprintf(" vserve loss %.9f delivered %d filtered %d migrations %d redirects %d sessions %d",
			v.LossPercent, v.Delivered, v.Filtered, v.Migrations, v.Redirects, v.Sessions)
	}
	if rs := r.out.Resilience; rs != nil {
		s += fmt.Sprintf(" resilience heartbeats %d rehomed %d crashes %d", rs.Heartbeats, rs.Rehomed, rs.Crashes)
	}
	return s
}

func timedExperiment(cfg d3t.Config) (simRun, error) {
	runtime.GC() // each experiment starts from a collected heap, whatever ran before it
	before := readUsage()
	begin := time.Now()
	out, err := d3t.RunExperiment(cfg)
	wall := time.Since(begin)
	if err != nil {
		return simRun{}, err
	}
	return simRun{seed: cfg.Seed, wall: wall, alloc: readUsage().sub(before).alloc, out: out}, nil
}

// checkOutcome applies the invariants any outcome must satisfy and, for a
// pinned seed at full size, the pinned counts. It returns what is wrong.
func checkOutcome(wl simWorkload, cfg d3t.Config, sc simScale, r simRun) []string {
	var bad []string
	out := r.out
	if out.Fidelity < 0 || out.Fidelity > 1 || math.IsNaN(out.Fidelity) {
		bad = append(bad, fmt.Sprintf("fidelity %v outside [0,1]", out.Fidelity))
	}
	if out.Stats.Messages > out.Stats.Events {
		bad = append(bad, fmt.Sprintf("%d messages from %d events", out.Stats.Messages, out.Stats.Events))
	}
	if cfg.VirtualSessions > 0 && (out.VServe == nil || out.VServe.Sessions != cfg.VirtualSessions) {
		bad = append(bad, fmt.Sprintf("fleet outcome %+v, configured %d sessions", out.VServe, cfg.VirtualSessions))
	}
	if sc == (simScale{}) {
		bad = append(bad, checkPin(wl.name, r)...)
	}
	return bad
}

// simSetUp performs the set-up of one experiment through the public
// generators, the way RunExperiment performs it inside: topology, traces,
// population or needs, overlay.
type simSetUp struct {
	network, traces, population, tree time.Duration
	net                               *d3t.Network
	trs                               []*d3t.Trace
	overlay                           *d3t.Overlay
	fleet                             *d3t.VirtualFleet
	initial                           map[string]float64
}

func (s simSetUp) total() time.Duration { return s.network + s.traces + s.population + s.tree }

func setUpSim(cfg d3t.Config) (simSetUp, error) {
	var s simSetUp
	var err error
	at := time.Now()
	s.net, err = d3t.GenerateNetwork(d3t.NetworkConfig{Repositories: cfg.Repositories, Routers: cfg.Routers, Seed: cfg.Seed})
	if err != nil {
		return s, err
	}
	s.network = time.Since(at)
	at = time.Now()
	s.trs = d3t.GenerateTraces(cfg.Items, cfg.Ticks, cfg.TickInterval, cfg.Seed+10)
	s.traces = time.Since(at)
	items := make([]string, len(s.trs))
	s.initial = make(map[string]float64, len(s.trs))
	for i, tr := range s.trs {
		items[i] = tr.Item
		s.initial[tr.Item] = tr.Ticks[0].Value
	}

	at = time.Now()
	repos := make([]*d3t.Repository, cfg.Repositories)
	for i := range repos {
		repos[i] = d3t.NewRepository(d3t.RepositoryID(i+1), 1)
	}
	if cfg.VirtualSessions > 0 {
		s.fleet, err = d3t.NewVirtualFleet(s.net, repos, d3t.VirtualFleetOptions{Interval: cfg.TickInterval})
		if err != nil {
			return s, err
		}
		err = s.fleet.Populate(d3t.VirtualSynthetic{Sessions: cfg.VirtualSessions, Items: items,
			ItemsPerClient: cfg.ItemsPerClient, StringentFrac: cfg.StringentFrac, Seed: cfg.Seed + 13})
		if err != nil {
			return s, err
		}
		s.fleet.DeriveNeeds()
	} else {
		// The facade does not export the experiment's own needs draw, so
		// the probe makes an equivalent one: every item with the
		// configured probability, at a banded tolerance.
		rng := rand.New(rand.NewSource(cfg.Seed + 11))
		for _, r := range repos {
			for _, item := range items {
				if rng.Float64() < cfg.SubscribeProb {
					c := tolerance(rng)
					r.Needs[item], r.Serving[item] = c, c
				}
			}
		}
	}
	s.population = time.Since(at)

	at = time.Now()
	coop := d3t.ControlledCoopDegree(s.net.AvgDelay(), d3t.Milliseconds(cfg.CompDelayMs), cfg.Repositories, cfg.CoopK)
	for _, r := range repos {
		r.CoopLimit = coop
	}
	s.overlay, err = d3t.NewLeLA(cfg.PPercent, cfg.Seed+2).Build(s.net, repos, coop)
	if err != nil {
		return s, err
	}
	s.tree = time.Since(at)
	return s, nil
}

// simSeeds is how many consecutive seeds one run covers.
const simSeeds = 4

// runSim runs one simulator workload: the set-up several times over for
// setup_s, then experiments on simSeeds consecutive seeds, round after
// round for as long as the measuring time holds (two rounds at least).
//
// A seed's cost is its best round. The simulator is deterministic and
// CPU-bound, so repeats of one seed differ only by what else the host was
// doing, and that only ever adds time. The repeats also make every run a
// determinism check: two rounds of one seed must agree on every count.
func runSim(wl simWorkload, p params, sc simScale) (*result, []string, error) {
	res := newResult(wl.name)
	var setups []float64
	for i := 0; i < p.setups; i++ {
		s, err := setUpSim(wl.config(p.seed, sc))
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, s.total().Seconds())
	}
	res.set("setup_s", steady(setups, lower))

	best := make([]simRun, simSeeds)
	counts := make([]string, simSeeds)
	begin := time.Now()
	rounds := 0
	for ; ; rounds++ {
		if rounds >= 2 {
			if time.Since(begin)+time.Since(begin)/time.Duration(rounds) > p.measure {
				break
			}
		}
		for i := range best {
			cfg := wl.config(p.seed+int64(i), sc)
			r, err := timedExperiment(cfg)
			res.attempted++
			if err != nil {
				res.failed++
				res.note("seed %d: %v", cfg.Seed, err)
				continue
			}
			bad := checkOutcome(wl, cfg, sc, r)
			if c := r.counts(); counts[i] == "" {
				counts[i] = c
			} else if c != counts[i] {
				bad = append(bad, fmt.Sprintf("two runs of one seed disagree:\n  %s\n  %s", counts[i], c))
			}
			if len(bad) > 0 {
				res.failed++
				for _, b := range bad {
					res.note("seed %d: %s", cfg.Seed, b)
				}
			}
			if best[i].out == nil || r.wall < best[i].wall {
				best[i] = r
			}
		}
	}

	// Per reference experiment: a seed's best wall time, scaled from the
	// traffic the seed happened to draw to the reference traffic.
	var perRef []float64
	var wall time.Duration
	var updates, alloc float64
	for _, r := range best {
		if r.out == nil {
			continue
		}
		perRef = append(perRef, ms(int64(r.wall))*wl.reference/r.updates())
		wall += r.wall
		updates += r.updates()
		alloc += float64(r.alloc)
	}
	if len(perRef) == 0 {
		return res, counts, nil
	}
	res.set("latency_p50_ms", median(perRef))
	res.set("capacity_updates_per_s", updates/wall.Seconds())
	res.set("alloc_bytes_per_update", alloc/updates)
	res.note("seeds %d..%d, %d rounds: best rounds average %.3f s and %.1f MB allocated, the costliest seed %.1f ms per reference experiment; loss %.4f %% at seed %d",
		p.seed, p.seed+simSeeds-1, rounds, wall.Seconds()/float64(len(perRef)),
		alloc/1e6/float64(len(perRef)), perRef[len(perRef)-1], best[0].out.LossPercent, best[0].seed)
	return res, counts, nil
}

// tracedSim is the traced run of a simulator workload: one experiment,
// then its parts one by one through the public building blocks, with a
// span around each.
func tracedSim(wl simWorkload, p params, sc simScale) (*result, error) {
	res := newResult(wl.name)
	log := &spanLog{}
	epoch := time.Now()
	// The parts run after the experiment, on their own: they are its
	// siblings in the span file, not its children.
	spanned := func(name string, d time.Duration) {
		end := int64(time.Since(epoch))
		log.add(name, 0, "", end-int64(d), end)
	}

	cfg := wl.config(p.seed, sc)
	r, err := timedExperiment(cfg)
	res.attempted = 1
	if err != nil {
		return nil, err
	}
	log.add("experiment", 0, "", int64(time.Since(epoch)-r.wall), int64(time.Since(epoch)))
	for _, b := range checkOutcome(wl, cfg, sc, r) {
		res.failed = 1
		res.note("seed %d: %s", cfg.Seed, b)
	}
	out := r.out
	res.set("sim.run_s", r.wall.Seconds())
	res.set("sim.alloc_mb", float64(r.alloc)/1e6)
	res.set("sim.loss_pct", out.LossPercent)
	res.set("dissemination.events", float64(out.Stats.Events))
	res.set("dissemination.messages", float64(out.Stats.Messages))
	res.set("bench.max_rss_mb", readUsage().maxRSSMB)
	if rs := out.Resilience; rs != nil {
		res.set("resilience.heartbeats", float64(rs.Heartbeats))
		res.set("resilience.rehomed", float64(rs.Rehomed))
		res.set("resilience.events", float64(out.Stats.Events))
	}
	if v := out.VServe; v != nil {
		res.set("sim.loss_pct", v.LossPercent)
		res.set("vserve.delivered", float64(v.Delivered))
		res.set("vserve.filtered", float64(v.Filtered))
		res.set("vserve.migrations", float64(v.Migrations))
		res.set("vserve.bytes_per_session", v.BytesPerSession)
	}

	s, err := setUpSim(cfg)
	if err != nil {
		return nil, err
	}
	spanned("netsim.generate", s.network)
	spanned("trace.generate", s.traces)
	spanned("tree.build", s.tree)
	res.set("netsim.generate_s", s.network.Seconds())
	res.set("trace.generate_s", s.traces.Seconds())
	res.set("tree.build_s", s.tree.Seconds())
	if s.fleet != nil {
		spanned("vserve.populate", s.population)
		res.set("vserve.populate_s", s.population.Seconds())
		ns, err := deliverProbe(s)
		if err != nil {
			return nil, err
		}
		res.set("vserve.deliver_ns_per_watch", ns)
	} else {
		before := readUsage()
		begin := time.Now()
		push, err := d3t.RunPush(s.overlay, s.trs, d3t.NewDistributed(), d3t.PushConfig{CompDelay: d3t.Milliseconds(cfg.CompDelayMs)})
		if err != nil {
			return nil, err
		}
		took := time.Since(begin)
		used := readUsage().sub(before)
		spanned("dissemination.run", took)
		events := float64(push.Stats.Events)
		res.set("dissemination.run_s", took.Seconds())
		res.set("dissemination.ns_per_event", float64(took)/events)
		res.set("dissemination.allocs_per_event", float64(used.mallocs)/events)
		res.set("bench.gc_cycles", float64(used.gcCycles))
		res.set("bench.gc_pause_ms", ms(int64(used.gcPause)))
		res.set("core.overhead_s", (r.wall - s.total() - took).Seconds())
	}
	res.set("bench.spans", float64(len(log.spans)))
	return res, log.write(p.outDir, wl.name)
}

// deliverProbe replays a dense delivery schedule through a populated
// fleet: at every tick that changes an item, every repository serving the
// item receives the new value. It returns the time inside ObserveDeliver
// per watch checked.
func deliverProbe(s simSetUp) (float64, error) {
	s.fleet.Seed(s.initial)
	var inside time.Duration
	var horizon d3t.Time
	for tick := 1; tick < len(s.trs[0].Ticks); tick++ {
		for _, tr := range s.trs {
			if tick >= len(tr.Ticks) || tr.Ticks[tick].Value == tr.Ticks[tick-1].Value {
				continue
			}
			now, v := tr.Ticks[tick].At, tr.Ticks[tick].Value
			horizon = now
			s.fleet.ObserveSource(now, tr.Item, v)
			for _, r := range s.overlay.Repos() {
				if _, serves := r.Serving[tr.Item]; !serves {
					continue
				}
				begin := time.Now()
				s.fleet.ObserveDeliver(now, r.ID, tr.Item, v)
				inside += time.Since(begin)
			}
		}
	}
	st := s.fleet.Finalize(horizon)
	watches := st.Delivered + st.Filtered
	if watches == 0 {
		return 0, fmt.Errorf("vserve probe: no watch was checked")
	}
	return float64(inside) / float64(watches), nil
}
