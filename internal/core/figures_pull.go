package core

import (
	"fmt"

	"d3t/internal/dissemination"
	"d3t/internal/sim"
)

// ExtensionPull compares the paper's push architecture against the
// future-work mechanisms (Section 8): pull with static TTR, adaptive TTR,
// and lease-augmented push — fidelity versus message cost.
func ExtensionPull(s Scale) (*FigureResult, error) {
	s, r := s.withRunner()
	cfg := s.base()
	cfg.CoopDegree = 0
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
	repos := cfg.repositories(traces)
	coop, err := r.controlledDegree(cfg)
	if err != nil {
		return nil, err
	}
	for _, r := range repos {
		r.CoopLimit = coop
	}
	builder, err := cfg.builder()
	if err != nil {
		return nil, err
	}
	overlay, err := builder.Build(net, repos, coop)
	if err != nil {
		return nil, err
	}

	pushCfg := dissemination.Config{CompDelay: cfg.compDelay()}
	type entry struct {
		name string
		run  func() (*dissemination.Result, error)
	}
	entries := []entry{
		{"push-distributed", func() (*dissemination.Result, error) {
			return dissemination.Run(overlay, traces, dissemination.NewDistributed(), pushCfg)
		}},
		{"pull-static-2s", func() (*dissemination.Result, error) {
			return dissemination.RunPull(overlay, traces, dissemination.PullConfig{
				Mode: dissemination.StaticTTR, TTR: 2 * sim.Second, CompDelay: cfg.compDelay()})
		}},
		{"pull-static-10s", func() (*dissemination.Result, error) {
			return dissemination.RunPull(overlay, traces, dissemination.PullConfig{
				Mode: dissemination.StaticTTR, TTR: 10 * sim.Second, CompDelay: cfg.compDelay()})
		}},
		{"pull-adaptive", func() (*dissemination.Result, error) {
			return dissemination.RunPull(overlay, traces, dissemination.PullConfig{
				Mode: dissemination.AdaptiveTTR, TTR: 10 * sim.Second, CompDelay: cfg.compDelay()})
		}},
		{"lease-push-60s", func() (*dissemination.Result, error) {
			return dissemination.RunLease(overlay, traces, dissemination.LeaseConfig{
				Duration: 60 * sim.Second, Push: pushCfg})
		}},
	}
	rows := make([][]string, 0, len(entries))
	for _, e := range entries {
		res, err := e.run()
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			e.name,
			fmt.Sprintf("%.2f", res.Report.LossPercent()),
			fmt.Sprintf("%d", res.Stats.Messages),
		})
	}
	return &FigureResult{
		ID:     "ext-pull",
		Title:  "Extension: push vs pull (TTR / adaptive) vs leases",
		Header: []string{"mechanism", "loss %", "messages"},
		Rows:   rows,
		Notes:  []string{"same overlay (controlled cooperation) and traces for every mechanism"},
	}, nil
}
