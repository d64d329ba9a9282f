package core

import "fmt"

// AblationTree compares the overlay builders under controlled cooperation:
// the paper's claim is that once the cooperation degree is right, the
// exact construction algorithm is secondary.
func AblationTree(s Scale) (*FigureResult, error) {
	builders := []string{"lela", "random", "greedy-closest"}
	var cfgs []Config
	for _, b := range builders {
		cfg := s.base()
		cfg.Builder = b
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
			o.Config.Builder,
			fmt.Sprintf("%.2f", o.LossPercent),
			fmt.Sprintf("%d", o.Tree.Diameter),
			fmt.Sprintf("%.1f", o.Tree.AvgDepth),
			fmt.Sprintf("%d", o.Stats.Messages),
		})
	}
	return &FigureResult{
		ID:     "ablation-tree",
		Title:  "Tree construction ablation under controlled cooperation",
		Header: []string{"builder", "loss %", "diameter", "avg depth", "messages"},
		Rows:   rows,
	}, nil
}

// AblationK sweeps the Eq. 2 constant k (the paper's footnote 1 reports
// insensitivity for k >= 30).
func AblationK(s Scale) (*FigureResult, error) {
	ks := []int{10, 30, 50, 100}
	var cfgs []Config
	for _, k := range ks {
		cfg := s.base()
		cfg.CoopDegree = 0
		cfg.CoopK = k
		cfgs = append(cfgs, cfg)
	}
	outs, err := s.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	rows := make([][]string, 0, len(outs))
	for _, o := range outs {
		rows = append(rows, []string{
			fmt.Sprintf("%d", o.Config.CoopK),
			fmt.Sprintf("%d", o.CoopDegreeUsed),
			fmt.Sprintf("%.2f", o.LossPercent),
		})
	}
	return &FigureResult{
		ID:     "ablation-k",
		Title:  "Sensitivity to the Eq. 2 constant k",
		Header: []string{"k", "coop degree", "loss %"},
		Rows:   rows,
	}, nil
}

// AblationQueueing contrasts the paper's per-update latency service model
// with a strict serial-server (queueing) model at growing fan-out: under
// queueing, an overcommitted node's backlog compounds across updates and
// the right arm of the U-curve turns into a cliff.
func AblationQueueing(s Scale) (*FigureResult, error) {
	var cfgs []Config
	for _, queueing := range []bool{false, true} {
		for _, coop := range s.CoopGrid {
			cfg := s.base()
			cfg.StringentFrac = 1
			cfg.CoopDegree = coop
			cfg.Queueing = queueing
			cfgs = append(cfgs, cfg)
		}
	}
	outs, err := s.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	labels := []string{"latency-model", "queueing-model"}
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
		ID:     "ablation-queueing",
		Title:  "Service-model ablation: per-update latency vs strict queueing (T=100)",
		XLabel: "Degree of Cooperation",
		YLabel: "Loss of Fidelity (%)",
		Series: series,
		Notes: []string{
			"the paper's computational delay is a per-dependent latency within an update;",
			"a strict serial server saturates at high fan-out and the loss explodes",
		},
	}, nil
}
