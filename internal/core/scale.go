package core

import "d3t/internal/obs"

// Scale sizes an experiment sweep. The paper's evaluation runs at
// PaperScale (100 repositories, 700 network nodes, 100 traces of 10000
// ticks); tests and benchmarks use SmallScale, which preserves every
// qualitative shape at a fraction of the cost.
type Scale struct {
	Repositories int
	Routers      int
	Items        int
	Ticks        int
	// CoopGrid is the x-axis of degree-of-cooperation sweeps.
	CoopGrid []int
	// TValues are the coherency-mix percentages plotted as separate
	// curves (the paper uses 0,20,50,70,80,90,100).
	TValues []float64
	// CommGridMs and CompGridMs are the delay sweep x-axes (Figures 5-7).
	CommGridMs []float64
	CompGridMs []float64
	// Seed drives all randomness.
	Seed int64
	// Workload names the trace family every sweep point runs over
	// (default "stocks"); WorkloadPath feeds the "csv" family.
	Workload     string
	WorkloadPath string
	// Faults applies a failure-injection spec (resilience.ParsePlan) to
	// every sweep point; the resilience figures override it per point.
	Faults string
	// Clients, ItemsPerClient and SessionCap apply a client-serving
	// population to every sweep point; the client figures override the
	// population and cap per point.
	Clients        int
	ItemsPerClient int
	SessionCap     int
	// Queries applies a derived-data query catalogue to every sweep point
	// (see Config.Queries); the query figures override it per point.
	Queries []string
	// VirtualSessions and Scenario apply a synthetic session population
	// to every sweep point (see Config.VirtualSessions); the client,
	// query and vserve figures override the population per point.
	VirtualSessions int
	Scenario        string
	// BatchTicks applies trace coalescing to every sweep point (see
	// Config.BatchTicks).
	BatchTicks int
	// Durability applies per-repository durable state (WAL + snapshots)
	// to every sweep point; the res-recovery-disk figure overrides the
	// directory and snapshot interval per point. See Config.Durability.
	Durability DurabilityConfig
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
		Repositories: 100,
		Routers:      600,
		Items:        100,
		Ticks:        10000,
		CoopGrid:     []int{1, 2, 3, 5, 7, 10, 15, 20, 30, 50, 75, 100},
		TValues:      []float64{0, 20, 50, 70, 80, 90, 100},
		CommGridMs:   []float64{1, 25, 50, 75, 100, 125},
		CompGridMs:   []float64{-1, 5, 10, 15, 20, 25},
		Seed:         1,
	}
}

// SmallScale is the fast preset used by tests and benchmarks.
func SmallScale() Scale {
	return Scale{
		Repositories: 30,
		Routers:      90,
		Items:        20,
		Ticks:        600,
		CoopGrid:     []int{1, 2, 4, 7, 12, 20, 30},
		TValues:      []float64{0, 50, 100},
		CommGridMs:   []float64{1, 50, 125},
		CompGridMs:   []float64{-1, 12.5, 25},
		Seed:         1,
	}
}

// base converts the scale into the base-case configuration.
func (s Scale) base() Config {
	cfg := Default()
	cfg.Repositories = s.Repositories
	cfg.Routers = s.Routers
	cfg.Items = s.Items
	cfg.Ticks = s.Ticks
	cfg.Seed = s.Seed
	cfg.Workload = s.Workload
	cfg.WorkloadPath = s.WorkloadPath
	cfg.Faults = s.Faults
	cfg.Clients = s.Clients
	cfg.ItemsPerClient = s.ItemsPerClient
	cfg.SessionCap = s.SessionCap
	cfg.Queries = s.Queries
	cfg.VirtualSessions = s.VirtualSessions
	cfg.Scenario = s.Scenario
	cfg.BatchTicks = s.BatchTicks
	cfg.Durability = s.Durability
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
