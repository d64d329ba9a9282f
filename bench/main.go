// Command d3tbench is the repository's benchmark: five named workloads
// over the three runtimes (live, netio, the simulator), each checked
// against an oracle, reporting the end-to-end metrics a user of the
// system sees and, in a traced run, the per-layer metrics behind them.
//
//	bash bench/run.sh                              every workload, untraced
//	bash bench/run.sh -workload netio-fanout       one workload
//	bash bench/run.sh -trace 1                     traced runs: per-layer metrics, span files
//	bash bench/run.sh -budget                      traced runs plus the layer budget
//	bash bench/run.sh -selfcheck                   every workload twice, compared
//
// The last line of each workload's output is one JSON object with the
// run's verdict and metrics. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		workload  = flag.String("workload", "", "run only this workload (default: all five)")
		seed      = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds   = flag.Int("seconds", runSeconds, "measuring time of one run, in seconds")
		trace     = flag.Int("trace", 0, "1: traced run (per-layer metrics, span files) instead of the end-to-end run")
		budget    = flag.Bool("budget", false, "traced runs, then the layer budget of each transport workload")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice and fail if the two disagree beyond the bounds")
		spec      = flag.Bool("spec", false, "print BENCHMARK.json and exit")
		outDir    = flag.String("out", "out", "directory for span files")
		tmpDir    = flag.String("tmp", "", "directory for write-ahead logs (default: the system's)")
	)
	flag.Parse()
	if *spec {
		fmt.Print(benchmarkJSON())
		return
	}
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: d3tbench [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-budget] [-selfcheck]")
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	p := params{seed: *seed, measure: time.Duration(*seconds) * time.Second, setups: 7,
		drain: 5 * time.Second, traced: *trace == 1 || *budget, outDir: *outDir, tmpDir: *tmpDir}

	ok := true
	for _, name := range names {
		var pass bool
		var err error
		if *selfcheck {
			pass, err = selfCheck(name, p)
		} else {
			pass, err = runOnce(name, p, *budget)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "d3tbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		ok = ok && pass
	}
	if !ok {
		os.Exit(1)
	}
}

// runWorkload runs the named workload once. counts is non-nil for the
// simulator workloads: one line of counts per experiment.
func runWorkload(name string, p params, sc simScale) (res *result, counts []string, err error) {
	for _, wl := range transportWorkloads {
		if wl.name == name {
			res, err = runTransport(wl, p)
			return res, nil, err
		}
	}
	for _, wl := range simWorkloads {
		if wl.name == name {
			if p.traced {
				res, err = tracedSim(wl, p, sc)
				return res, nil, err
			}
			return runSim(wl, p, sc)
		}
	}
	return nil, nil, fmt.Errorf("unknown workload (have %v)", workloads)
}

// runOnce runs, prints and judges one workload. The JSON line comes last.
func runOnce(name string, p params, budget bool) (bool, error) {
	res, _, err := runWorkload(name, p, simScale{})
	if err != nil {
		return false, err
	}
	table := endToEnd
	if p.traced {
		table = perLayer
	}
	res.print(os.Stdout, table)
	if budget {
		printBudget(res)
	}
	fmt.Println(res.jsonLine(table))
	return res.correct(), nil
}

// selfCheck runs one workload twice with identical settings. The pair
// passes when both runs are correct, every end-to-end metric of the
// second is within its bound of the first (in either direction: the code
// is the same, so any gap is the benchmark's own noise), and, for the
// simulator, the two runs agree on every count of every seed both ran.
func selfCheck(name string, p params) (bool, error) {
	p.traced = false
	var runs [2]*result
	var counts [2][]string
	for i := range runs {
		var err error
		runs[i], counts[i], err = runWorkload(name, p, simScale{})
		if err != nil {
			return false, err
		}
		runs[i].print(os.Stdout, endToEnd)
	}
	ok := runs[0].correct() && runs[1].correct()
	for _, m := range endToEnd {
		a, b := runs[0].values[m.Name], runs[1].values[m.Name]
		gap := 0.0
		if a != 0 {
			gap = (b - a) / a
		}
		verdict := "ok"
		if a == 0 || gap > m.Bound || gap < -m.Bound {
			if m.Name == "setup_s" {
				verdict = "noted (set-up time is compared by its median over runs, not pairwise)"
			} else {
				verdict, ok = "DISAGREE", false
			}
		}
		fmt.Printf("%-14s selfcheck %-24s %14.6g %14.6g %+7.2f %% of bound %.0f %%: %s\n",
			name, m.Name, a, b, 100*gap, 100*m.Bound, verdict)
	}
	for i := 0; i < len(counts[0]) && i < len(counts[1]); i++ {
		if counts[0][i] != counts[1][i] {
			ok = false
			fmt.Printf("%-14s selfcheck counts differ between two runs of one seed:\n  %s\n  %s\n", name, counts[0][i], counts[1][i])
		}
	}
	return ok, nil
}

// printBudget sets the probes' cost per layer against the latency the
// clients saw, with what the probes cannot explain as its own row.
func printBudget(res *result) {
	v := res.values
	if v["bench.path_explained_us"] == 0 {
		return // a simulator workload: no update path to budget
	}
	latency := v["bench.path_explained_us"] / (1 - v["bench.path_unexplained_ratio"])
	upf := v["wire.updates_per_frame"]
	if upf == 0 {
		upf = 1
	}
	rows := []struct {
		layer string
		ns    float64
	}{
		{"wire decode (one frame)", v["wire.decode_ns_per_frame"]},
		{"node apply", v["node.apply_ns_per_update"] * upf},
		{"wal append", v["wal.append_ns_per_update"] * upf},
		{"wal commit (p50)", v["wal.commit_us_p50"] * 1e3},
		{"wire encode (one frame)", v["wire.encode_ns_per_frame"]},
	}
	fmt.Printf("%-14s layer budget: %d hops, %.3g updates per frame, latency p50 %.1f us\n", res.workload, worldDepth, upf, latency)
	fmt.Printf("%-14s   %-26s %12s %12s %8s\n", res.workload, "layer", "ns per hop", "us on path", "share")
	for _, r := range rows {
		onPath := worldDepth * r.ns / 1e3
		fmt.Printf("%-14s   %-26s %12.1f %12.2f %7.2f%%\n", res.workload, r.layer, r.ns, onPath, 100*onPath/latency)
	}
	fmt.Printf("%-14s   %-26s %12s %12.2f %7.2f%%\n", res.workload, "explained", "", v["bench.path_explained_us"],
		100*v["bench.path_explained_us"]/latency)
	fmt.Printf("%-14s   %-26s %12s %12.2f %7.2f%%\n", res.workload, "unexplained (locks, syscalls, scheduling)", "",
		latency-v["bench.path_explained_us"], 100*v["bench.path_unexplained_ratio"])
}
