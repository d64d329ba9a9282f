package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"d3t/internal/netsim"
	"d3t/internal/obs"
	"d3t/internal/trace"
	"d3t/internal/tree"
)

// Progress reports sweep advancement after each completed point.
type Progress struct {
	// Done and Total count completed and scheduled points.
	Done, Total int
	// Index is the just-completed point's position in the batch.
	Index int
	// Err is that point's error, if it failed.
	Err error
}

// Runner executes batches of experiment configurations on a bounded
// worker pool. Unlike spawning one goroutine per configuration, the pool
// keeps at most Workers simulations in flight — a paper-scale figure is
// hundreds of points, each holding a full network and event queue, so the
// bound is what keeps memory flat while all cores stay busy.
//
// The runner also memoizes the immutable substrates across sweep points:
// most points of a figure share one physical network and one trace set
// (only T, the cooperation degree, or the protocol vary), so building
// them once per distinct parameter key instead of once per point removes
// the dominant constant cost of a sweep. Both caches are keyed on every
// field that influences generation, and the cached values are read-only
// by construction (see runExperimentWith), so sharing them across
// concurrent workers is safe.
//
// Results are ordered by input index and each point's seed comes from its
// own Config, so a batch's outcome is byte-for-byte identical no matter
// how many workers run it.
//
// A Runner is safe for concurrent use and may be reused across batches to
// share its caches between figures; the zero value is ready to use.
type Runner struct {
	// Workers bounds concurrent simulations; <= 0 means GOMAXPROCS.
	Workers int
	// OnProgress, when set, is called after every completed point. Calls
	// are serialized; Done is monotone within one RunAll batch.
	OnProgress func(Progress)
	// Log, when set, reports sweep progress through the shared leveled
	// logger: per-point completions at debug level, per-point failures at
	// info level. It replaces the CLIs' ad-hoc progress printing; a nil
	// logger is silent.
	Log *obs.Logger

	mu     sync.Mutex
	nets   map[netKey]*memoEntry[*netsim.Network]
	traces map[traceKey]*memoEntry[[]*trace.Trace]

	// cache hit/miss counters, for tests and -v reporting.
	netBuilds, netHits     int
	traceBuilds, traceHits int
}

// NewRunner returns a runner with the given worker bound.
func NewRunner(workers int) *Runner { return &Runner{Workers: workers} }

// netKey covers every Config field that cfg.network() reads.
type netKey struct {
	repositories, routers           int
	linkDelayMinMs, linkDelayMeanMs float64
	commDelayMs                     float64
	seed                            int64
}

// traceKey covers every Config field that cfg.traces() reads.
type traceKey struct {
	workload, path string
	items, ticks   int
	interval       int64
	seed           int64
}

// memoEntry is a once-guarded cache slot: concurrent misses on the same
// key build the value exactly once and share the result.
type memoEntry[T any] struct {
	once sync.Once
	val  T
	err  error
}

// CacheStats reports how often the runner reused a substrate instead of
// rebuilding it.
type CacheStats struct {
	NetworkBuilds, NetworkHits int
	TraceBuilds, TraceHits     int
}

// CacheStats returns the cache counters accumulated so far.
func (r *Runner) CacheStats() CacheStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return CacheStats{
		NetworkBuilds: r.netBuilds, NetworkHits: r.netHits,
		TraceBuilds: r.traceBuilds, TraceHits: r.traceHits,
	}
}

func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// network returns the (possibly cached) physical network for the config.
func (r *Runner) network(cfg Config) (*netsim.Network, error) {
	key := netKey{
		repositories:    cfg.Repositories,
		routers:         cfg.Routers,
		linkDelayMinMs:  cfg.LinkDelayMinMs,
		linkDelayMeanMs: cfg.LinkDelayMeanMs,
		commDelayMs:     cfg.CommDelayMs,
		seed:            cfg.Seed,
	}
	r.mu.Lock()
	if r.nets == nil {
		r.nets = make(map[netKey]*memoEntry[*netsim.Network])
	}
	e, ok := r.nets[key]
	if !ok {
		e = &memoEntry[*netsim.Network]{}
		r.nets[key] = e
		r.netBuilds++
	} else {
		r.netHits++
	}
	r.mu.Unlock()
	e.once.Do(func() { e.val, e.err = cfg.network() })
	return e.val, e.err
}

// traceSet returns the (possibly cached) trace set for the config.
func (r *Runner) traceSet(cfg Config) ([]*trace.Trace, error) {
	key := traceKey{
		workload: cfg.Workload,
		path:     cfg.WorkloadPath,
		items:    cfg.Items,
		ticks:    cfg.Ticks,
		interval: int64(cfg.TickInterval),
		seed:     cfg.Seed,
	}
	r.mu.Lock()
	if r.traces == nil {
		r.traces = make(map[traceKey]*memoEntry[[]*trace.Trace])
	}
	e, ok := r.traces[key]
	if !ok {
		e = &memoEntry[[]*trace.Trace]{}
		r.traces[key] = e
		r.traceBuilds++
	} else {
		r.traceHits++
	}
	r.mu.Unlock()
	e.once.Do(func() { e.val, e.err = cfg.traces() })
	return e.val, e.err
}

// controlledDegree computes the Eq. 2 degree for a configuration without
// running the dissemination, measuring the average communication delay on
// the (cached) network.
func (r *Runner) controlledDegree(cfg Config) (int, error) {
	net, err := r.network(cfg)
	if err != nil {
		return 0, err
	}
	comp := cfg.compDelay()
	if comp < 0 {
		comp = 0
	}
	return tree.ControlledCoopDegree(net.AvgDelay(), comp, cfg.Repositories, cfg.CoopK), nil
}

// Run executes one configuration through the runner's caches.
func (r *Runner) Run(cfg Config) (*Outcome, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	net, err := r.network(cfg)
	if err != nil {
		return nil, err
	}
	traces, err := r.traceSet(cfg)
	if err != nil {
		return nil, err
	}
	return runExperimentWith(cfg, net, traces)
}

// RunAll executes the batch on the worker pool, preserving input order.
// Every point runs even after earlier failures, so one bad configuration
// does not hide the others: the returned error joins every per-point
// failure (annotated with its index), and outs[i] is nil exactly where
// point i failed.
func (r *Runner) RunAll(cfgs []Config) ([]*Outcome, error) {
	outs := make([]*Outcome, len(cfgs))
	errs := make([]error, len(cfgs))

	var (
		progressMu sync.Mutex
		done       int
	)
	report := func(i int, err error) {
		if r.OnProgress == nil && r.Log == nil {
			return
		}
		progressMu.Lock()
		done++
		d := done
		if r.OnProgress != nil {
			r.OnProgress(Progress{Done: d, Total: len(cfgs), Index: i, Err: err})
		}
		progressMu.Unlock()
		if err != nil {
			r.Log.Infof("sweep point %d/%d FAILED: %v", d, len(cfgs), err)
		} else {
			r.Log.Debugf("sweep point %d/%d ok", d, len(cfgs))
		}
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < r.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				outs[i], errs[i] = r.Run(cfgs[i])
				report(i, errs[i])
			}
		}()
	}
	for i := range cfgs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	var failures []error
	for i, err := range errs {
		if err != nil {
			failures = append(failures, fmt.Errorf("point %d/%d: %w", i, len(cfgs), err))
		}
	}
	if len(failures) > 0 {
		return nil, errors.Join(failures...)
	}
	return outs, nil
}
