// Command d3tsim runs one fully configured coherency simulation and
// reports fidelity, overlay shape and work counters.
//
// Example:
//
//	d3tsim -repos 100 -routers 600 -items 100 -ticks 10000 \
//	       -T 0.8 -coop 0 -protocol distributed
//
// -coop 0 selects controlled cooperation (Eq. 2 of the paper).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"d3t/internal/core"
	"d3t/internal/obs"
)

// options are d3tsim's settings that are not part of the run's Config.
type options struct {
	verbose, quiet, obs bool
	obsInterval         time.Duration
}

// parseArgs parses the command line (without the program name) into the
// run's validated Config and the command's own options.
func parseArgs(args []string) (core.Config, options, error) {
	cfg := core.Default()
	var o options
	if err := newFlagSet(&cfg, &o).Parse(args); err != nil {
		return cfg, o, err
	}
	return cfg, o, cfg.Validate()
}

// newFlagSet binds d3tsim's flags: the shared Config flags and its own.
func newFlagSet(cfg *core.Config, o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("d3tsim", flag.ContinueOnError)
	core.BindFlags(fs, cfg)
	fs.IntVar(&cfg.Routers, "routers", cfg.Routers, "number of routers in the physical network")
	fs.Float64Var(&cfg.SubscribeProb, "subscribe", cfg.SubscribeProb, "per-item subscription probability")
	fs.Float64Var(&cfg.StringentFrac, "T", cfg.StringentFrac, "fraction of items with stringent tolerances (the paper's T)")
	fs.IntVar(&cfg.CoopDegree, "coop", cfg.CoopDegree, "degree of cooperation (0 = controlled, Eq. 2)")
	fs.IntVar(&cfg.CoopK, "k", cfg.CoopK, "Eq. 2 constant k")
	fs.StringVar(&cfg.Builder, "builder", cfg.Builder, "overlay builder: lela, random, greedy-closest, direct")
	fs.Float64Var(&cfg.PPercent, "p", cfg.PPercent, "LeLA load-controller admission band (%)")
	fs.StringVar(&cfg.Preference, "pref", cfg.Preference, "LeLA preference function: P1 or P2")
	fs.StringVar(&cfg.Protocol, "protocol", cfg.Protocol, "dissemination: distributed, centralized, naive-eq3, all-push")
	fs.IntVar(&cfg.Shards, "shards", cfg.Shards, "parallel item shards (<=1 = one run; rejected with -clients, -virtual-sessions, -query, -faults or -durability-dir)")
	fs.Float64Var(&cfg.CompDelayMs, "comp", cfg.CompDelayMs, "computational delay per dissemination (ms; negative = zero)")
	fs.Float64Var(&cfg.CommDelayMs, "comm", cfg.CommDelayMs, "uniform communication delay (ms; 0 = random topology)")
	fs.IntVar(&cfg.DetectTicks, "detect", cfg.DetectTicks, "failure-detection window in heartbeat intervals (0 = default 3)")
	fs.StringVar(&cfg.SessionChurn, "session-churn", cfg.SessionChurn,
		"session arrival/departure plan, same grammar as -faults over the client population")
	fs.BoolVar(&o.verbose, "v", false, "debug logging on stderr")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress informational logging")
	fs.BoolVar(&o.obs, "obs", false, "record per-node observability and print a final latency/load summary")
	fs.DurationVar(&o.obsInterval, "obs-interval", 0, "period between obs summary lines on stderr while the run disseminates (implies -obs)")
	return fs
}

func main() {
	cfg, o, err := parseArgs(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "d3tsim: %v\n", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, obs.CommandLevel(o.verbose, o.quiet))
	if o.obs || o.obsInterval > 0 {
		cfg.Obs = obs.NewTree()
	}
	start := time.Now()
	defer obs.LogEvery(logger, cfg.Obs, o.obsInterval, start)()

	logger.Debugf("d3tsim: running %d repositories, %d items x %d ticks", cfg.Repositories, cfg.Items, cfg.Ticks)
	out, err := core.RunExperiment(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "d3tsim: %v\n", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	workload := cfg.Workload
	if workload == "" {
		workload = "stocks"
	}
	if workload == "csv" {
		// Items/Ticks only cap a replayed set; the file decides the rest.
		fmt.Printf("workload            csv (replay of %s)\n", cfg.WorkloadPath)
	} else {
		fmt.Printf("workload            %s (%d items x %d ticks)\n", workload, cfg.Items, cfg.Ticks)
	}
	fmt.Printf("protocol            %s over %s overlay\n", cfg.Protocol, cfg.Builder)
	fmt.Printf("fidelity            %.4f (loss %.2f%%)\n", out.Fidelity, out.LossPercent)
	fmt.Printf("cooperation degree  %d (avg comm delay %v)\n", out.CoopDegreeUsed, out.AvgCommDelay)
	fmt.Printf("overlay             %v\n", out.Tree)
	fmt.Printf("messages            %d\n", out.Stats.Messages)
	fmt.Printf("source checks       %d\n", out.Stats.SourceChecks)
	fmt.Printf("repository checks   %d\n", out.Stats.RepoChecks)
	fmt.Printf("deliveries          %d\n", out.Stats.Deliveries)
	fmt.Printf("source utilization  %.1f%%\n", 100*out.SourceUtilization)
	fmt.Printf("simulation events   %d\n", out.Stats.Events)
	if cfg.Shards > 1 || cfg.BatchTicks > 1 {
		fmt.Printf("shards / batching   %d shards, batch window %d ticks\n", max(cfg.Shards, 1), max(cfg.BatchTicks, 1))
		fmt.Printf("updates             %d disseminated, %d coalesced away\n", out.Stats.SourceTicks, out.Coalesced)
		fmt.Printf("throughput          %.0f updates/s (%v wall)\n",
			float64(out.Stats.SourceTicks)/elapsed.Seconds(), elapsed.Round(time.Millisecond))
	}
	if r := out.Resilience; r != nil {
		fmt.Printf("faults              %s (crashes %d, rejoins %d)\n", cfg.Faults, r.Crashes, r.Rejoins)
		fmt.Printf("detections          %d parent, %d child drops\n", r.Detections, r.ChildDrops)
		fmt.Printf("repairs             %d feeds re-homed, %d orphaned\n", r.Rehomed, r.Orphaned)
		if r.RecoverySamples > 0 {
			fmt.Printf("recovery latency    mean %v, max %v (%d samples)\n",
				r.MeanRecovery, r.MaxRecovery, r.RecoverySamples)
		}
		if r.Kills > 0 || r.DiskRecoveries > 0 {
			fmt.Printf("kills               %d (process deaths; in-memory state lost)\n", r.Kills)
			fmt.Printf("disk recoveries     %d (%d records replayed, %d restored at start)\n",
				r.DiskRecoveries, r.ReplayedRecords, r.RestoredAtStart)
			if r.DiskRecoveries > 0 {
				fmt.Printf("replay time         %v total, %v mean per recovery\n", r.ReplayTime, r.MeanReplay)
			}
		}
		fmt.Printf("heartbeats          %d\n", r.Heartbeats)
	}
	if c := out.Clients; c != nil && out.VServe == nil { // with synthetic sessions too, the block below covers the one store
		fmt.Printf("client sessions     %d (cap %d, %d redirected at admission)\n",
			c.Sessions, cfg.SessionCap, c.Redirects)
		fmt.Printf("client fidelity     %.4f mean, %.4f worst (loss %.2f%%)\n",
			c.MeanFidelity, c.WorstFidelity, c.LossPercent)
		fmt.Printf("client fan-out      %d delivered, %d filtered at the leaf\n",
			c.Delivered, c.Filtered)
		if c.Departures+c.Arrivals+c.Migrations+c.Orphaned > 0 {
			fmt.Printf("session churn       %d departures, %d arrivals, %d migrations, %d orphaned (%d resync values)\n",
				c.Departures, c.Arrivals, c.Migrations, c.Orphaned, c.Resyncs)
		}
	}
	if v := out.VServe; v != nil {
		fmt.Printf("virtual sessions    %d in %d shards (%.0f bytes/session resident)\n",
			v.Sessions, v.Shards, v.BytesPerSession)
		fmt.Printf("virtual fidelity    %.4f mean, %.4f worst (loss %.2f%%)\n",
			v.MeanFidelity, v.WorstFidelity, v.LossPercent)
		fmt.Printf("virtual fan-out     %d delivered, %d filtered at the leaf (%d redirected at admission)\n",
			v.Delivered, v.Filtered, v.Redirects)
		if v.Departures+v.Arrivals+v.Migrations+v.Orphaned > 0 {
			fmt.Printf("virtual churn       %d departures, %d arrivals, %d migrations, %d orphaned (%d resync values)\n",
				v.Departures, v.Arrivals, v.Migrations, v.Orphaned, v.Resyncs)
		}
		if cfg.Scenario != "" && cfg.Scenario != "none" {
			fmt.Printf("scenario            %s\n", cfg.Scenario)
		}
	}
	if qs := out.Queries; qs != nil {
		fmt.Printf("query sessions      %d\n", qs.Queries)
		fmt.Printf("query fidelity      %.4f mean, %.4f worst (loss %.2f%%, input floor %.4f)\n",
			qs.MeanFidelity, qs.WorstFidelity, qs.LossPercent, qs.MeanInputFloor)
		fmt.Printf("query work          %d evals, %d recomputes\n", qs.Evals, qs.Recomputes)
		fmt.Printf("query messages      %d placement-charged (%d input pushes, %d result pushes, %d resyncs)\n",
			qs.Messages, qs.InputPushes, qs.ResultPushes, qs.Resyncs)
	}
	if snap := out.Obs; snap != nil {
		hop, src, red, viol := cfg.Obs.Merged()
		fmt.Printf("obs hop delay       p50 %.1f ms, p95 %.1f ms, p99 %.1f ms (%d samples)\n",
			hop.P50Ms, hop.P95Ms, hop.P99Ms, hop.Count)
		fmt.Printf("obs source latency  p50 %.1f ms, p95 %.1f ms, p99 %.1f ms\n",
			src.P50Ms, src.P95Ms, src.P99Ms)
		if red.Count > 0 {
			fmt.Printf("obs redirect wait   p50 %.1f ms, p99 %.1f ms (%d redirects)\n",
				red.P50Ms, red.P99Ms, red.Count)
		}
		if viol.Count > 0 {
			fmt.Printf("obs violations      %d closed, p95 %.1f ms\n", viol.Count, viol.P95Ms)
		}
		var busy *obs.NodeSnapshot
		for i := range snap.Nodes {
			n := &snap.Nodes[i]
			if busy == nil || n.Counters.Received > busy.Counters.Received {
				busy = n
			}
		}
		if busy != nil && busy.Counters.Received > 0 {
			fmt.Printf("obs busiest node    %v: %d received, %d forwarded, load %.1f updates/s\n",
				busy.ID, busy.Counters.Received, busy.Counters.DepForwarded, busy.LoadEWMA)
		}
	}
}
