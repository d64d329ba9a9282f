// Command d3texp regenerates the tables and figures of the paper's
// evaluation (Section 6). Each figure prints the same rows/series the
// paper plots. Sweeps run on a bounded worker pool that shares cached
// networks and traces across points, and any registered workload family
// can stand in for the paper's stock traces.
//
// Usage:
//
//	d3texp -fig fig3                  # one figure at the default (small) scale
//	d3texp -fig all -scale paper      # the full evaluation at paper scale
//	d3texp -fig fig3 -workload bursty # the same sweep over a bursty feed
//	d3texp -workers 4 -v              # bound the pool, watch points complete
//	d3texp -list                      # available figure ids and workloads
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"d3t/internal/core"
	"d3t/internal/obs"
	"d3t/internal/query"
	"d3t/internal/trace"
)

// querySpecs collects the repeatable -query flag.
type querySpecs []string

func (q *querySpecs) String() string     { return fmt.Sprint([]string(*q)) }
func (q *querySpecs) Set(s string) error { *q = append(*q, s); return nil }

func main() {
	var queries querySpecs
	var (
		fig      = flag.String("fig", "all", "figure id to regenerate, or 'all'")
		scale    = flag.String("scale", "small", "experiment scale: 'small' or 'paper'")
		list     = flag.Bool("list", false, "list available figure ids and workloads, then exit")
		seed     = flag.Int64("seed", 0, "override the experiment seed (0 keeps the preset)")
		repos    = flag.Int("repos", 0, "override the repository count")
		items    = flag.Int("items", 0, "override the item count")
		ticks    = flag.Int("ticks", 0, "override the trace length")
		workload = flag.String("workload", "", "trace workload family (default stocks); see -list")
		wpath    = flag.String("workload-path", "", "trace CSV file for -workload=csv")
		faults   = flag.String("faults", "", "failure injection applied to every sweep point (resilience figures override it)")
		walDir   = flag.String("durability-dir", "", "write-ahead log directory applied to every sweep point; kill: faults then recover from disk (res-recovery-disk overrides it per point)")
		snapEv   = flag.Int("snapshot-every", 0, "commits between WAL snapshot rotations (0 = default 256)")
		fsync    = flag.String("fsync", "", "WAL fsync policy: batch (default), always, never")
		clients  = flag.Int("clients", 0, "client sessions applied to every sweep point (client figures override the population)")
		itemsPC  = flag.Int("items-per-client", 0, "mean watch-list size per client (default 3)")
		cap      = flag.Int("session-cap", 0, "sessions per repository before overflow redirects (0 = unlimited)")
		virtual  = flag.Int("virtual-sessions", 0, "virtual sessions applied to every sweep point (the client/query/vserve figures override the population)")
		scenario = flag.String("scenario", "", "scenario over the virtual population applied to every sweep point, e.g. flash:at=0.3,frac=0.5")
		batch    = flag.Int("batch", 0, "coalescing window in ticks applied to every sweep point (<=1 = off)")
		workers  = flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
		verbose  = flag.Bool("v", false, "debug logging on stderr (per-point sweep progress, cache stats)")
		quiet    = flag.Bool("quiet", false, "suppress informational logging")
		obsIv    = flag.Duration("obs-interval", 0, "period between aggregate obs summary lines on stderr while sweeps run")
		timings  = flag.Bool("time", false, "print elapsed time per figure")
		asCSV    = flag.Bool("csv", false, "emit machine-readable CSV instead of tables")
	)
	flag.Var(&queries, "query", "derived-data query spec applied to every sweep point, repeatable (the query figures override it per point) — e.g. 'avg(w=5;ITEM000,ITEM001)@0.05'")
	flag.Parse()
	if len(queries) > 0 {
		if _, err := query.ParseList(queries); err != nil {
			fmt.Fprintf(os.Stderr, "d3texp: %v\n", err)
			os.Exit(2)
		}
	}

	level := obs.LevelInfo
	if *verbose {
		level = obs.LevelDebug
	}
	if *quiet {
		level = obs.LevelQuiet
	}
	logger := obs.NewLogger(os.Stderr, level)

	if *list {
		fmt.Println("figures:")
		for _, id := range core.FigureIDs() {
			fmt.Printf("  %s\n", id)
		}
		fmt.Println("workloads:")
		for _, name := range trace.WorkloadNames() {
			w, _ := trace.LookupWorkload(name)
			fmt.Printf("  %-8s %s\n", name, w.Describe())
		}
		return
	}

	var s core.Scale
	switch *scale {
	case "small":
		s = core.SmallScale()
	case "paper":
		s = core.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "d3texp: unknown scale %q (want small or paper)\n", *scale)
		os.Exit(2)
	}
	if *seed != 0 {
		s.Seed = *seed
	}
	if *repos > 0 {
		s.Repositories = *repos
		s.Routers = 6 * *repos
	}
	if *items > 0 {
		s.Items = *items
	}
	if *ticks > 0 {
		s.Ticks = *ticks
	}
	if _, err := trace.LookupWorkload(*workload); err != nil {
		fmt.Fprintf(os.Stderr, "d3texp: %v\n", err)
		os.Exit(2)
	}
	if *workload == "csv" && *wpath == "" {
		fmt.Fprintln(os.Stderr, "d3texp: -workload=csv needs -workload-path")
		os.Exit(2)
	}
	s.Workload = *workload
	s.WorkloadPath = *wpath
	s.Faults = *faults
	s.Durability = core.DurabilityConfig{Dir: *walDir, SnapshotEvery: *snapEv, Fsync: *fsync}
	s.Clients = *clients
	s.ItemsPerClient = *itemsPC
	s.SessionCap = *cap
	s.BatchTicks = *batch
	s.Queries = queries
	s.VirtualSessions = *virtual
	s.Scenario = *scenario
	if *scenario != "" {
		if _, err := trace.ParseScenario(*scenario); err != nil {
			fmt.Fprintf(os.Stderr, "d3texp: %v\n", err)
			os.Exit(2)
		}
	}

	// One runner for every figure: its network/trace caches carry across
	// figures (most share the base-case substrates), and its worker pool
	// bounds the whole run.
	runner := core.NewRunner(*workers)
	runner.Log = logger
	s.Runner = runner

	start := time.Now()
	if *obsIv > 0 {
		// A single shared tree aggregates every sweep point in flight; the
		// ticker reports the rolled-up view. (The obs-* figures still use
		// their own per-point trees.)
		s.ObsTree = obs.NewTree()
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			tick := time.NewTicker(*obsIv)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					logger.Infof("%s", s.ObsTree.Summary(time.Since(start).Microseconds()))
				}
			}
		}()
	}

	registry := core.Figures()
	var ids []string
	if *fig == "all" {
		ids = core.FigureIDs()
	} else {
		if _, ok := registry[*fig]; !ok {
			fmt.Fprintf(os.Stderr, "d3texp: unknown figure %q; use -list\n", *fig)
			os.Exit(2)
		}
		ids = []string{*fig}
	}

	for _, id := range ids {
		figStart := time.Now()
		logger.Debugf("figure %s: starting", id)
		result, err := registry[id](s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "d3texp: %s: %v\n", id, err)
			os.Exit(1)
		}
		emit := result.Fprint
		if *asCSV {
			emit = result.WriteCSV
		}
		if err := emit(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "d3texp: printing %s: %v\n", id, err)
			os.Exit(1)
		}
		if *timings {
			fmt.Printf("(%s took %v)\n\n", id, time.Since(figStart).Round(time.Millisecond))
		}
	}
	if s.ObsTree != nil {
		logger.Infof("final %s", s.ObsTree.Summary(time.Since(start).Microseconds()))
	}
	if logger.Enabled(obs.LevelDebug) {
		st := runner.CacheStats()
		logger.Debugf("cache: %d networks built (%d reused), %d trace sets built (%d reused)",
			st.NetworkBuilds, st.NetworkHits, st.TraceBuilds, st.TraceHits)
	}
}
