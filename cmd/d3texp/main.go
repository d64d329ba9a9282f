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
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"d3t/internal/core"
	"d3t/internal/obs"
	"d3t/internal/trace"
)

// options are d3texp's settings that are not part of the sweep's Scale.
type options struct {
	fig, scale                         string
	list, timings, csv, verbose, quiet bool
	obsInterval                        time.Duration
}

// parseArgs parses the command line (without the program name) into the
// sweep's validated Scale and the command's own options. The shared
// Config flags set the base case of every sweep point; sizing flags left
// unset keep the -scale preset's values, and -repos n also sizes the
// network to 6n routers. With -list nothing is validated.
func parseArgs(args []string) (core.Scale, options, error) {
	s := core.SmallScale()
	var o options
	fs := newFlagSet(&s, &o)
	if err := fs.Parse(args); err != nil || o.list {
		return s, o, err
	}

	var preset core.Scale
	switch o.scale {
	case "small":
		preset = core.SmallScale()
	case "paper":
		preset = core.PaperScale()
	default:
		return s, o, fmt.Errorf("unknown scale %q (want small or paper)", o.scale)
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	b, p := &s.Base, preset.Base
	if set["repos"] {
		b.Routers = 6 * b.Repositories
	} else {
		b.Repositories, b.Routers = p.Repositories, p.Routers
	}
	if !set["items"] {
		b.Items = p.Items
	}
	if !set["ticks"] {
		b.Ticks = p.Ticks
	}
	if !set["seed"] {
		b.Seed = p.Seed
	}
	s.CoopGrid, s.TValues, s.CommGridMs, s.CompGridMs = preset.CoopGrid, preset.TValues, preset.CommGridMs, preset.CompGridMs

	if _, ok := core.Figures()[o.fig]; !ok && o.fig != "all" {
		return s, o, fmt.Errorf("unknown figure %q; use -list", o.fig)
	}
	return s, o, s.Base.Validate()
}

// newFlagSet binds d3texp's flags: the shared Config flags, bound onto
// the sweep's base case, and its own.
func newFlagSet(s *core.Scale, o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("d3texp", flag.ContinueOnError)
	core.BindFlags(fs, &s.Base)
	fs.StringVar(&o.fig, "fig", "all", "figure id to regenerate, or 'all'")
	fs.StringVar(&o.scale, "scale", "small", "experiment scale: 'small' or 'paper'")
	fs.BoolVar(&o.list, "list", false, "list available figure ids and workloads, then exit")
	fs.IntVar(&s.Workers, "workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	fs.BoolVar(&o.verbose, "v", false, "debug logging on stderr (per-point sweep progress, cache stats)")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress informational logging")
	fs.DurationVar(&o.obsInterval, "obs-interval", 0, "period between aggregate obs summary lines on stderr while sweeps run")
	fs.BoolVar(&o.timings, "time", false, "print elapsed time per figure")
	fs.BoolVar(&o.csv, "csv", false, "emit machine-readable CSV instead of tables")
	return fs
}

func main() {
	s, o, err := parseArgs(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "d3texp: %v\n", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, obs.CommandLevel(o.verbose, o.quiet))

	if o.list {
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

	// One runner for every figure: its network/trace caches carry across
	// figures (most share the base-case substrates), and its worker pool
	// bounds the whole run.
	runner := core.NewRunner(s.Workers)
	runner.Log = logger
	s.Runner = runner

	start := time.Now()
	if o.obsInterval > 0 {
		// A single shared tree aggregates every sweep point in flight; the
		// ticker reports the rolled-up view. (The obs-* figures still use
		// their own per-point trees.)
		s.ObsTree = obs.NewTree()
	}
	defer obs.LogEvery(logger, s.ObsTree, o.obsInterval, start)()

	registry := core.Figures()
	ids := []string{o.fig}
	if o.fig == "all" {
		ids = core.FigureIDs()
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
		if o.csv {
			emit = result.WriteCSV
		}
		if err := emit(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "d3texp: printing %s: %v\n", id, err)
			os.Exit(1)
		}
		if o.timings {
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
