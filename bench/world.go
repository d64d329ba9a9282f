package main

import (
	"fmt"
	"math/rand"
	"sort"

	"d3t"
)

// The transport world: every transport workload disseminates the same
// world, so the workloads differ only in the layers they drive. The world
// has two halves. The deployment (who needs which item at which
// tolerance, the overlay LeLA builds from that, where the client sessions
// sit) is configuration, like the number of repositories, and is drawn
// from the constant deploymentSeed. The feed (where each item starts and
// how it moves) is the input, and is drawn from the run's seed. Drawing
// the deployment per run as well was tried and dropped: forwards per
// update, and with them capacity and allocation, then moved by 10-20 %
// from seed to seed, far beyond any bound worth setting.
const (
	deploymentSeed = 1
	worldRepos     = 12
	worldCoop      = 3
	worldItems     = 64
	worldDepth     = 3
	// walkStep is the largest single move of an item's random walk. It is
	// tuned so that about half of all edge checks forward
	// (node.forward_ratio 0.4-0.6 at seed 1): the filters do real work in
	// both directions.
	walkStep = 0.12
	// walkBand bounds each walk around its start, wide enough that even
	// the most lenient tolerance (0.999) is crossed again and again.
	walkBand = 4.0
)

// update is one source publish: an item (by index) and its new value.
type update struct {
	item  int32
	value float64
}

// sessionSpec is one client session of the world.
type sessionSpec struct {
	name  string
	repo  d3t.RepositoryID
	depth int
	wants map[string]d3t.Requirement
}

// timed reports whether the session is one of the depth-3 clients whose
// receipts make the latency metrics, as opposed to a shallower probe.
func (s sessionSpec) timed() bool { return s.depth == worldDepth }

// world is everything a transport workload is made from: items,
// tolerances, the overlay recipe, client sessions and the update
// generator.
type world struct {
	items   []string
	itemIdx map[string]int32
	initial map[string]float64
	// overlaySeed is the draw that gave an overlay of depth exactly
	// worldDepth; overlay() rebuilds it on demand, because a cluster and
	// its oracle must not share mutable repositories.
	overlaySeed int64
	// sessions are the timed client sessions, each on its own depth-3
	// repository; probes are the extra depth-1 and depth-2 sessions a
	// traced run adds to split the path into hops.
	sessions []sessionSpec
	probes   []sessionSpec
	gen      *walkGen
}

// tolerance draws from the paper's bands: stringent [0.01, 0.099] or
// lenient [0.1, 0.999], half each.
func tolerance(rng *rand.Rand) d3t.Requirement {
	if rng.Float64() < 0.5 {
		return d3t.Requirement(0.01 + rng.Float64()*(0.099-0.01))
	}
	return d3t.Requirement(0.1 + rng.Float64()*(0.999-0.1))
}

func itemNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("ITEM%03d", i)
	}
	return names
}

// buildOverlay draws each repository's needs (every item with
// probability one half, at a banded tolerance) and wires them with LeLA
// over a uniform zero-delay network: the real network is the one under
// test.
func buildOverlay(seed int64, items []string) (*d3t.Overlay, error) {
	rng := rand.New(rand.NewSource(seed))
	repos := make([]*d3t.Repository, worldRepos)
	for i := range repos {
		r := d3t.NewRepository(d3t.RepositoryID(i+1), worldCoop)
		for _, item := range items {
			if rng.Float64() < 0.5 {
				c := tolerance(rng)
				r.Needs[item], r.Serving[item] = c, c
			}
		}
		repos[i] = r
	}
	return d3t.NewLeLA(5, seed).Build(d3t.UniformNetwork(worldRepos, 0), repos, worldCoop)
}

// reposAtLevel lists the overlay's repositories at the given depth, by id.
func reposAtLevel(o *d3t.Overlay, level int) []*d3t.Repository {
	var out []*d3t.Repository
	for _, r := range o.Repos() {
		if r.Level == level {
			out = append(out, r)
		}
	}
	return out
}

func maxLevel(o *d3t.Overlay) int {
	m := 0
	for _, r := range o.Repos() {
		if r.Level > m {
			m = r.Level
		}
	}
	return m
}

// newWorld builds the world with nsessions timed sessions and a feed
// drawn from seed. Overlay draws are repeated, deterministically, until
// one is exactly worldDepth deep with enough depth-3 repositories: the
// workloads are defined over three blocking hops.
func newWorld(seed int64, nsessions int) (*world, error) {
	w := &world{
		items:   itemNames(worldItems),
		itemIdx: make(map[string]int32, worldItems),
		initial: make(map[string]float64, worldItems),
	}
	for i, x := range w.items {
		w.itemIdx[x] = int32(i)
	}
	var o *d3t.Overlay
	for try := int64(0); ; try++ {
		if try == 256 {
			return nil, fmt.Errorf("world: no depth-%d overlay with %d leaf repositories in 256 draws",
				worldDepth, nsessions)
		}
		cand := deploymentSeed*1_000_003 + try
		built, err := buildOverlay(cand, w.items)
		if err != nil {
			return nil, fmt.Errorf("world: %w", err)
		}
		if maxLevel(built) == worldDepth && len(reposAtLevel(built, worldDepth)) >= nsessions &&
			len(reposAtLevel(built, 1)) > 0 && len(reposAtLevel(built, 2)) > 0 {
			o, w.overlaySeed = built, cand
			break
		}
	}
	w.gen = newWalkGen(rand.New(rand.NewSource(seed)), w.items, w.initial)
	rng := rand.New(rand.NewSource(deploymentSeed))
	session := func(name string, r *d3t.Repository) sessionSpec {
		// A session watches what its repository needs for itself, at a
		// tolerance up to half again as loose: admission requires the
		// repository to serve every item at least that stringently.
		wants := make(map[string]d3t.Requirement, len(r.Needs))
		for _, item := range r.NeededItems() {
			c, _ := r.ServingTolerance(item)
			wants[item] = c * d3t.Requirement(1+0.5*rng.Float64())
		}
		return sessionSpec{name: name, repo: r.ID, depth: r.Level, wants: wants}
	}
	for i, r := range reposAtLevel(o, worldDepth)[:nsessions] {
		w.sessions = append(w.sessions, session(fmt.Sprintf("client%d", i), r))
	}
	for d := 1; d < worldDepth; d++ {
		w.probes = append(w.probes, session(fmt.Sprintf("probe-d%d", d), reposAtLevel(o, d)[0]))
	}
	return w, nil
}

// overlay rebuilds the world's overlay from its recorded draw.
func (w *world) overlay() (*d3t.Overlay, error) { return buildOverlay(w.overlaySeed, w.items) }

// levelOrder returns the overlay's nodes parents-first, ties by id.
func levelOrder(o *d3t.Overlay) []*d3t.Repository {
	order := append([]*d3t.Repository(nil), o.Nodes...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].Level < order[j].Level })
	return order
}

// walkGen is the source feed: a bounded random walk per item, items
// taken in a fixed shuffled round so that any worldItems consecutive
// updates name distinct items (a batch never coalesces).
type walkGen struct {
	rng    *rand.Rand
	order  []int32
	cur    []float64
	lo, hi []float64
	n      int
}

func newWalkGen(rng *rand.Rand, items []string, initial map[string]float64) *walkGen {
	g := &walkGen{
		rng:   rng,
		order: make([]int32, len(items)),
		cur:   make([]float64, len(items)),
		lo:    make([]float64, len(items)),
		hi:    make([]float64, len(items)),
	}
	for i, x := range items {
		g.order[i] = int32(i)
		g.cur[i] = 20 + 80*rng.Float64()
		g.lo[i], g.hi[i] = g.cur[i]-walkBand/2, g.cur[i]+walkBand/2
		initial[x] = g.cur[i]
	}
	rng.Shuffle(len(g.order), func(i, j int) { g.order[i], g.order[j] = g.order[j], g.order[i] })
	return g
}

// next draws the next publish. The published value is the walk plus the
// publish index times 1e-9, so no item ever repeats a value and a
// receipt identifies its publish by value alone: matching by order would
// misalign for good after a single dropped delivery.
func (g *walkGen) next() update {
	it := g.order[g.n%len(g.order)]
	v := g.cur[it] + walkStep*(2*g.rng.Float64()-1)
	if v < g.lo[it] {
		v = 2*g.lo[it] - v
	} else if v > g.hi[it] {
		v = 2*g.hi[it] - v
	}
	g.cur[it] = v
	g.n++
	return update{item: it, value: v + float64(g.n)*1e-9}
}

// fill overwrites buf with the next len(buf) publishes.
func (g *walkGen) fill(buf []update) {
	for i := range buf {
		buf[i] = g.next()
	}
}
