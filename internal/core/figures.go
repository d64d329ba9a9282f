package core

import (
	"fmt"
	"sort"

	"d3t/internal/dissemination"
	"d3t/internal/netsim"
	"d3t/internal/repository"
	"d3t/internal/sim"
	"d3t/internal/trace"
	"d3t/internal/tree"
)

// Series is one labelled curve of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// FigureResult carries everything needed to print (or plot) one
// reproduced table or figure. Curve figures fill Series; tabular results
// fill Header/Rows. Notes carry commentary such as derived parameters.
type FigureResult struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Header []string
	Rows   [][]string
	Notes  []string
}

// FigureFunc regenerates one table or figure at the given scale.
type FigureFunc func(Scale) (*FigureResult, error)

// Figures returns the registry of reproducible tables and figures, keyed
// by the ids used throughout DESIGN.md and EXPERIMENTS.md.
func Figures() map[string]FigureFunc {
	return map[string]FigureFunc{
		"table1":            Table1,
		"fig3":              Figure3,
		"fig4":              Figure4,
		"fig5":              Figure5,
		"fig6":              Figure6,
		"fig7a":             Figure7a,
		"fig7b":             Figure7b,
		"fig7c":             Figure7c,
		"fig8":              Figure8,
		"fig9":              Figure9,
		"fig10":             Figure10,
		"fig11":             Figure11,
		"scale":             Scalability,
		"ablation-tree":     AblationTree,
		"ablation-k":        AblationK,
		"ablation-queueing": AblationQueueing,
		"ext-pull":          ExtensionPull,
		"res-fidelity":      FigureFaultFidelity,
		"res-recovery":      FigureRecoveryLatency,
		"res-recovery-disk": FigureRecoveryDisk,
		"clients-fidelity":  FigureClientFidelity,
		"clients-churn":     FigureClientChurn,
		"obs-latency":       FigureObsLatency,
		"obs-load":          FigureObsLoad,
		"query-fidelity":    FigureQueryFidelity,
		"query-cost":        FigureQueryCost,
		"vserve-scale":      FigureVServeScale,
		"vserve-flash":      FigureVServeFlash,
	}
}

// FigureIDs returns the registry keys in sorted order.
func FigureIDs() []string {
	ids := make([]string, 0)
	for id := range Figures() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Table1 regenerates the trace-characteristics table from the synthetic
// stand-ins for the paper's six example tickers.
func Table1(s Scale) (*FigureResult, error) {
	traces := trace.Table1TracesSized(s.Base.Ticks, s.Base.Seed)
	rows := make([][]string, 0, len(traces))
	for i, tr := range traces {
		st := tr.Summarize()
		tk := trace.Table1Tickers[i]
		rows = append(rows, []string{
			st.Item,
			fmt.Sprintf("%d", st.Ticks),
			fmt.Sprintf("%.2f", st.Min),
			fmt.Sprintf("%.2f", st.Max),
			fmt.Sprintf("%.2f-%.2f", tk.Min, tk.Max),
		})
	}
	return &FigureResult{
		ID:     "table1",
		Title:  "Trace characteristics (synthetic stand-ins for the paper's polls)",
		Header: []string{"ticker", "ticks", "min", "max", "paper band"},
		Rows:   rows,
	}, nil
}

// coopSweep runs one loss-vs-cooperation curve per T value, with mutate
// applied to each configuration before running.
func coopSweep(s Scale, mutate func(*Config)) ([]Series, error) {
	var cfgs []Config
	for _, tval := range s.TValues {
		for _, coop := range s.CoopGrid {
			cfg := s.base()
			cfg.StringentFrac = tval / 100
			cfg.CoopDegree = coop
			if coop > cfg.Repositories {
				cfg.CoopDegree = cfg.Repositories
			}
			if mutate != nil {
				mutate(&cfg)
			}
			cfgs = append(cfgs, cfg)
		}
	}
	outs, err := s.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	var series []Series
	i := 0
	for _, tval := range s.TValues {
		se := Series{Label: fmt.Sprintf("T=%.0f", tval)}
		for _, coop := range s.CoopGrid {
			se.X = append(se.X, float64(coop))
			se.Y = append(se.Y, outs[i].LossPercent)
			i++
		}
		series = append(series, se)
	}
	return series, nil
}

// Figure3 reproduces the headline U-shaped curve: loss of fidelity versus
// degree of cooperation for each coherency mix T.
func Figure3(s Scale) (*FigureResult, error) {
	series, err := coopSweep(s, nil)
	if err != nil {
		return nil, err
	}
	return &FigureResult{
		ID:     "fig3",
		Title:  "Need for Limiting Cooperation (loss vs degree of cooperation)",
		XLabel: "Degree of Cooperation",
		YLabel: "Loss of Fidelity (%)",
		Series: series,
	}, nil
}

// Figure4 demonstrates the missed-update problem on the paper's exact
// example (values scaled x100 so the comparisons are float-exact): Eq. 3
// alone loses fidelity even under ideal conditions; adding Eq. 7 restores
// 100%.
func Figure4(Scale) (*FigureResult, error) {
	build := func() (*tree.Overlay, []*trace.Trace, error) {
		net := netsim.Uniform(2, 0)
		p := repository.New(1, 1)
		q := repository.New(2, 1)
		p.Needs["X"], p.Serving["X"] = 30, 30
		q.Needs["X"], q.Serving["X"] = 50, 50
		o, err := (&tree.LeLA{}).Build(net, []*repository.Repository{p, q}, 1)
		if err != nil {
			return nil, nil, err
		}
		tr := &trace.Trace{Item: "X"}
		for i, v := range []float64{100, 120, 140, 150, 170, 200} {
			tr.Ticks = append(tr.Ticks, trace.Tick{At: sim.Time(i) * sim.Second, Value: v})
		}
		return o, []*trace.Trace{tr}, nil
	}
	rows := make([][]string, 0, 3)
	for _, proto := range []dissemination.Protocol{
		dissemination.NewNaive(), dissemination.NewDistributed(), dissemination.NewCentralized(),
	} {
		o, traces, err := build()
		if err != nil {
			return nil, err
		}
		res, err := dissemination.Run(o, traces, proto, dissemination.Config{CompDelay: -1})
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			proto.Name(),
			fmt.Sprintf("%.2f", res.Report.LossPercent()),
			fmt.Sprintf("%d", res.Stats.Messages),
		})
	}
	return &FigureResult{
		ID:     "fig4",
		Title:  "Missed-update problem (paper's Figure 4 scenario, zero delays)",
		Header: []string{"protocol", "loss %", "messages"},
		Rows:   rows,
		Notes: []string{
			"chain source -> P (c=30) -> Q (c=50); values 100,120,140,150,170,200",
			"naive-eq3 must show positive loss; the exact algorithms must show 0",
		},
	}, nil
}

// delaySweep runs one loss-vs-delay curve per T value.
func delaySweep(s Scale, grid []float64, mutate func(*Config, float64)) ([]Series, error) {
	var cfgs []Config
	for _, tval := range s.TValues {
		for _, d := range grid {
			cfg := s.base()
			cfg.StringentFrac = tval / 100
			mutate(&cfg, d)
			cfgs = append(cfgs, cfg)
		}
	}
	outs, err := s.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	var series []Series
	i := 0
	for _, tval := range s.TValues {
		se := Series{Label: fmt.Sprintf("T=%.0f", tval)}
		for _, d := range grid {
			x := d
			if x < 0 {
				x = 0 // the "-1 means exactly zero" convention
			}
			se.X = append(se.X, x)
			se.Y = append(se.Y, outs[i].LossPercent)
			i++
		}
		series = append(series, se)
	}
	return series, nil
}

// Figure5 reproduces performance without cooperation while communication
// delays vary: the source serves every repository directly.
func Figure5(s Scale) (*FigureResult, error) {
	series, err := delaySweep(s, s.CommGridMs, func(cfg *Config, d float64) {
		cfg.Builder = "direct"
		cfg.CoopDegree = cfg.Repositories
		cfg.CommDelayMs = d
	})
	if err != nil {
		return nil, err
	}
	return &FigureResult{
		ID:     "fig5",
		Title:  "Performance without Cooperation, varying Communication Delays",
		XLabel: "Communication Delays (ms)",
		YLabel: "Loss of Fidelity (%)",
		Series: series,
		Notes:  []string{"source serves all repositories directly; computational delay 12.5 ms"},
	}, nil
}

// Figure6 reproduces performance without cooperation while computational
// delays vary.
func Figure6(s Scale) (*FigureResult, error) {
	series, err := delaySweep(s, s.CompGridMs, func(cfg *Config, d float64) {
		cfg.Builder = "direct"
		cfg.CoopDegree = cfg.Repositories
		cfg.CommDelayMs = 25
		cfg.CompDelayMs = d
	})
	if err != nil {
		return nil, err
	}
	return &FigureResult{
		ID:     "fig6",
		Title:  "Performance without Cooperation, varying Computational Delays",
		XLabel: "Computational Delays (ms)",
		YLabel: "Loss of Fidelity (%)",
		Series: series,
		Notes:  []string{"source serves all repositories directly; communication delay 25 ms"},
	}, nil
}

// Figure7a reproduces the controlled-cooperation base case: the offered
// degree of cooperation is capped by Eq. 2, turning the U into an L.
func Figure7a(s Scale) (*FigureResult, error) {
	s, r := s.withRunner()
	series, err := coopSweep(s, func(cfg *Config) {
		offered := cfg.CoopDegree
		cfg.CoopDegree = 0 // ask RunExperiment for the Eq. 2 value...
		probe, err := r.controlledDegree(*cfg)
		if err == nil && offered > probe {
			cfg.CoopDegree = probe // ...and never offer more than it
		} else {
			cfg.CoopDegree = offered
		}
	})
	if err != nil {
		return nil, err
	}
	return &FigureResult{
		ID:     "fig7a",
		Title:  "Performance with Controlled Cooperation (base case)",
		XLabel: "Degree of Cooperation (offered)",
		YLabel: "Loss of Fidelity (%)",
		Series: series,
		Notes:  []string{"effective degree = min(offered, Eq.2 value): the curve flattens past it"},
	}, nil
}

// Figure7b: controlled cooperation while communication delays vary; Eq. 2
// adapts the degree upward with the delay.
func Figure7b(s Scale) (*FigureResult, error) {
	series, err := delaySweep(s, s.CommGridMs, func(cfg *Config, d float64) {
		cfg.CommDelayMs = d
		cfg.CoopDegree = 0 // controlled
	})
	if err != nil {
		return nil, err
	}
	return &FigureResult{
		ID:     "fig7b",
		Title:  "Controlled Cooperation, varying Communication Delays",
		XLabel: "Communication Delays (ms)",
		YLabel: "Loss of Fidelity (%)",
		Series: series,
	}, nil
}

// Figure7c: controlled cooperation while computational delays vary; Eq. 2
// adapts the degree downward as computation grows.
func Figure7c(s Scale) (*FigureResult, error) {
	series, err := delaySweep(s, s.CompGridMs, func(cfg *Config, d float64) {
		cfg.CompDelayMs = d
		cfg.CoopDegree = 0 // controlled
	})
	if err != nil {
		return nil, err
	}
	return &FigureResult{
		ID:     "fig7c",
		Title:  "Controlled Cooperation, varying Computational Delays",
		XLabel: "Computational Delays (ms)",
		YLabel: "Loss of Fidelity (%)",
		Series: series,
	}, nil
}

// Figure8 compares filtered dissemination (T=0: every update selectively
// forwarded) against pushing all updates, across the cooperation sweep.
// The figure's mechanism is overload — "the latter approach disseminates
// more messages, which increases the network overheads as well as
// computational delays at repositories" — so it runs under the strict
// queueing service model, where the unfiltered flood actually backs
// nodes up.
func Figure8(s Scale) (*FigureResult, error) {
	var cfgs []Config
	for _, mode := range []string{"all-push", "distributed"} {
		for _, coop := range s.CoopGrid {
			cfg := s.base()
			cfg.StringentFrac = 0
			cfg.CoopDegree = coop
			cfg.Protocol = mode
			cfg.Queueing = true
			cfgs = append(cfgs, cfg)
		}
	}
	outs, err := s.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	labels := []string{"All updates", "Filtered"}
	var series []Series
	i := 0
	for _, lbl := range labels {
		se := Series{Label: lbl}
		for _, coop := range s.CoopGrid {
			se.X = append(se.X, float64(coop))
			se.Y = append(se.Y, outs[i].LossPercent)
			i++
		}
		series = append(series, se)
	}
	return &FigureResult{
		ID:     "fig8",
		Title:  "Importance of Filtering during Update Propagation",
		XLabel: "Degree of Cooperation",
		YLabel: "Loss of Fidelity (%)",
		Series: series,
	}, nil
}

// Figure9 sweeps the load controller's P% admission band, with and
// without controlled cooperation ("W" curves).
func Figure9(s Scale) (*FigureResult, error) {
	s, r := s.withRunner()
	pvals := []float64{1, 5, 10, 25}
	eq2, err := r.controlledDegree(s.base())
	if err != nil {
		return nil, err
	}
	var cfgs []Config
	for _, controlled := range []bool{false, true} {
		for _, p := range pvals {
			for _, coop := range s.CoopGrid {
				cfg := s.base()
				cfg.PPercent = p
				cfg.CoopDegree = coop
				if controlled && coop > eq2 {
					cfg.CoopDegree = eq2
				}
				cfgs = append(cfgs, cfg)
			}
		}
	}
	outs, err := s.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	var series []Series
	i := 0
	for _, controlled := range []bool{false, true} {
		for _, p := range pvals {
			lbl := fmt.Sprintf("P=%.0f", p)
			if controlled {
				lbl += "W"
			}
			se := Series{Label: lbl}
			for _, coop := range s.CoopGrid {
				se.X = append(se.X, float64(coop))
				se.Y = append(se.Y, outs[i].LossPercent)
				i++
			}
			series = append(series, se)
		}
	}
	return &FigureResult{
		ID:     "fig9",
		Title:  "Effect of Different P% Values (W = with controlled cooperation)",
		XLabel: "Degree of Cooperation",
		YLabel: "Loss of Fidelity (%)",
		Series: series,
		Notes:  []string{fmt.Sprintf("controlled (Eq.2) degree = %d", eq2)},
	}, nil
}

// Figure10 compares the two preference functions P1 and P2, with and
// without controlled cooperation.
func Figure10(s Scale) (*FigureResult, error) {
	s, r := s.withRunner()
	prefs := []string{"P1", "P2"}
	eq2, err := r.controlledDegree(s.base())
	if err != nil {
		return nil, err
	}
	var cfgs []Config
	for _, controlled := range []bool{false, true} {
		for _, pref := range prefs {
			for _, coop := range s.CoopGrid {
				cfg := s.base()
				cfg.Preference = pref
				cfg.CoopDegree = coop
				if controlled && coop > eq2 {
					cfg.CoopDegree = eq2
				}
				cfgs = append(cfgs, cfg)
			}
		}
	}
	outs, err := s.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	var series []Series
	i := 0
	for _, controlled := range []bool{false, true} {
		for _, pref := range prefs {
			lbl := pref
			if controlled {
				lbl += "W"
			}
			se := Series{Label: lbl}
			for _, coop := range s.CoopGrid {
				se.X = append(se.X, float64(coop))
				se.Y = append(se.Y, outs[i].LossPercent)
				i++
			}
			series = append(series, se)
		}
	}
	return &FigureResult{
		ID:     "fig10",
		Title:  "Effect of Different Preference Functions (W = with controlled cooperation)",
		XLabel: "Degree of Cooperation",
		YLabel: "Loss of Fidelity (%)",
		Series: series,
	}, nil
}

// Figure11 compares the centralized and distributed dissemination
// approaches on source checks (a) and messages (b).
func Figure11(s Scale) (*FigureResult, error) {
	var cfgs []Config
	for _, proto := range []string{"centralized", "distributed"} {
		cfg := s.base()
		cfg.Protocol = proto
		cfg.CoopDegree = 0 // controlled
		cfgs = append(cfgs, cfg)
	}
	outs, err := s.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	rows := make([][]string, 0, 2)
	for _, o := range outs {
		rows = append(rows, []string{
			o.Config.Protocol,
			fmt.Sprintf("%d", o.Stats.SourceChecks),
			fmt.Sprintf("%d", o.Stats.RepoChecks),
			fmt.Sprintf("%d", o.Stats.Messages),
			fmt.Sprintf("%.3f", o.Fidelity),
		})
	}
	ratio := float64(outs[0].Stats.SourceChecks) / float64(max64(outs[1].Stats.SourceChecks, 1))
	return &FigureResult{
		ID:     "fig11",
		Title:  "Centralized vs Distributed Dissemination",
		Header: []string{"protocol", "source checks", "repo checks", "messages", "fidelity"},
		Rows:   rows,
		Notes: []string{fmt.Sprintf(
			"source-check ratio centralized/distributed = %.2f (paper: ~1.5); message counts should be close", ratio)},
	}, nil
}

// Scalability reproduces Section 6.3.5: growing the repository population
// (and the network proportionally) with controlled cooperation should cost
// only a few points of fidelity.
func Scalability(s Scale) (*FigureResult, error) {
	sizes := []int{s.Base.Repositories, 2 * s.Base.Repositories, 3 * s.Base.Repositories}
	var cfgs []Config
	for _, n := range sizes {
		cfg := s.base()
		cfg.Repositories = n
		cfg.Routers = 6 * n
		cfg.CoopDegree = 0 // controlled
		cfgs = append(cfgs, cfg)
	}
	outs, err := s.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	rows := make([][]string, 0, len(outs))
	for _, o := range outs {
		rows = append(rows, []string{
			fmt.Sprintf("%d", o.Config.Repositories),
			fmt.Sprintf("%d", o.Config.Repositories+o.Config.Routers+1),
			fmt.Sprintf("%.2f", o.LossPercent),
			fmt.Sprintf("%d", o.CoopDegreeUsed),
			fmt.Sprintf("%d", o.Tree.Diameter),
		})
	}
	delta := outs[len(outs)-1].LossPercent - outs[0].LossPercent
	return &FigureResult{
		ID:     "scale",
		Title:  "Scalability: loss of fidelity as the repository population triples",
		Header: []string{"repositories", "total nodes", "loss %", "coop degree", "diameter"},
		Rows:   rows,
		Notes:  []string{fmt.Sprintf("loss increase base->3x = %.2f points (paper: <5)", delta)},
	}, nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
