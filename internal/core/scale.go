package core

import "d3t/internal/obs"

// Scale is an experiment sweep: the base-case Config every point starts
// from, plus the axes the figures sweep. The paper's evaluation runs at
// PaperScale (100 repositories, 700 network nodes, 100 traces of 10000
// ticks); tests and benchmarks use SmallScale, which preserves every
// qualitative shape at a fraction of the cost.
type Scale struct {
	// Base is the configuration of every sweep point before the figure
	// applies its own axes. Whatever it sets beyond the sizes (a workload,
	// faults, a session population, queries, batching, durability)
	// applies to every point; figures that sweep one of those layers
	// override it per point.
	Base Config
	// CoopGrid is the x-axis of degree-of-cooperation sweeps.
	CoopGrid []int
	// TValues are the coherency-mix percentages plotted as separate
	// curves (the paper uses 0,20,50,70,80,90,100).
	TValues []float64
	// CommGridMs and CompGridMs are the delay sweep x-axes (Figures 5-7).
	CommGridMs []float64
	CompGridMs []float64
	// Obs attaches a fresh observability tree to every sweep point, so
	// each Outcome carries its per-node counter/latency snapshot.
	// Observation is passive: figures render byte-identically either way
	// (TestObsDisabledByteIdentical). The obs-* figures force it on.
	Obs bool
	// ObsTree, when set, makes every sweep point record into this one
	// shared tree instead of per-point trees — the live aggregate view
	// d3texp's -obs-interval monitors while a sweep runs. It overrides
	// Obs; the obs-* figures ignore it (they need per-point isolation).
	ObsTree *obs.Tree
	// Workers bounds the sweep worker pool (<= 0 means GOMAXPROCS).
	Workers int
	// Runner, when set, executes the sweeps — sharing its substrate
	// caches and progress callback across figures. When nil each sweep
	// uses a fresh runner bounded by Workers.
	Runner *Runner
}

// PaperScale reproduces the paper's base case.
func PaperScale() Scale {
	return Scale{
		Base:       Default(),
		CoopGrid:   []int{1, 2, 3, 5, 7, 10, 15, 20, 30, 50, 75, 100},
		TValues:    []float64{0, 20, 50, 70, 80, 90, 100},
		CommGridMs: []float64{1, 25, 50, 75, 100, 125},
		CompGridMs: []float64{-1, 5, 10, 15, 20, 25},
	}
}

// SmallScale is the fast preset used by tests and benchmarks.
func SmallScale() Scale {
	base := Default()
	base.Repositories, base.Routers, base.Items, base.Ticks = 30, 90, 20, 600
	return Scale{
		Base:       base,
		CoopGrid:   []int{1, 2, 4, 7, 12, 20, 30},
		TValues:    []float64{0, 50, 100},
		CommGridMs: []float64{1, 50, 125},
		CompGridMs: []float64{-1, 12.5, 25},
	}
}

// base is the configuration a sweep point starts from: Base with the
// scale's observability attached.
func (s Scale) base() Config {
	cfg := s.Base
	if s.ObsTree != nil {
		cfg.Obs = s.ObsTree
	} else if s.Obs {
		cfg.Obs = obs.NewTree()
	}
	return cfg
}

// runAll executes a figure's configurations through the scale's runner.
func (s Scale) runAll(cfgs []Config) ([]*Outcome, error) {
	_, r := s.withRunner()
	return r.RunAll(cfgs)
}

// withRunner pins a concrete runner on the scale copy, so that every
// sweep and substrate probe within one figure shares its caches even
// when the caller did not provide a shared Runner.
func (s Scale) withRunner() (Scale, *Runner) {
	if s.Runner == nil {
		s.Runner = NewRunner(s.Workers)
	}
	return s, s.Runner
}
