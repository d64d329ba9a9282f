package core

import (
	"fmt"
	"math"

	"d3t/internal/obs"
)

// This file holds the serving layer's scale evaluation: synthetic
// populations up to a million sessions in one process. Sessions are
// compact per-shard array state (internal/serve), placement goes through
// the shared nearest-k index with consistent-hash overflow, and the
// figures report what an operator would watch — client-observed fidelity,
// p99 redirect latency from the obs histograms, and resident bytes per
// session.

// vserveScaleFactors size the population as multiples of the repository
// count — the scale figure's rows. The largest point at paper scale
// (100 repositories) is one million sessions in one process.
var vserveScaleFactors = []int{10, 100, 1000, 10000}

// vserveTickBudget bounds sessions x ticks per point so the sweep's cost
// stays roughly flat as the population grows; fidelity is time-normalized
// so a shorter horizon remains comparable.
const vserveTickBudget = 2e8

// vserveScaleConfigs builds the scale sweep's configurations plus the
// per-point observability trees the redirect-latency quantiles come from.
func vserveScaleConfigs(s Scale) ([]Config, []*obs.Tree) {
	var cfgs []Config
	var trees []*obs.Tree
	for _, factor := range vserveScaleFactors {
		cfg := s.base()
		cfg.CoopDegree = 0                                  // controlled cooperation
		cfg.Clients, cfg.Queries, cfg.Scenario = 0, nil, "" // this figure owns the population
		cfg.VirtualSessions = factor * cfg.Repositories
		// Half a standard deviation of headroom over the mean
		// per-repository load (uniform homes ~ binomial, sigma ~ sqrt of
		// the mean): a sizable minority of homes overflow at every
		// population, exercising redirects and the overflow ring.
		cfg.SessionCap = factor + int(math.Sqrt(float64(factor))/2) + 1
		if max := int(vserveTickBudget) / cfg.VirtualSessions; cfg.Ticks > max {
			cfg.Ticks = max
		}
		cfg.Obs = obs.NewTree()
		trees = append(trees, cfg.Obs)
		cfgs = append(cfgs, cfg)
	}
	return cfgs, trees
}

// FigureVServeScale grows the virtual session population to a million
// sessions in one process and tabulates the serving layer's behaviour at
// each order of magnitude: client-observed loss, redirect work and its
// p99 latency, and the measured resident session-state footprint.
func FigureVServeScale(s Scale) (*FigureResult, error) {
	cfgs, trees := vserveScaleConfigs(s)
	outs, err := s.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	rows := make([][]string, 0, len(outs))
	for i, out := range outs {
		v := out.VServe
		if v == nil {
			return nil, fmt.Errorf("core: vserve-scale point %d ran without virtual stats", i)
		}
		_, _, redirect, _ := trees[i].Merged()
		rows = append(rows, []string{
			fmt.Sprintf("%d", v.Sessions),
			fmt.Sprintf("%d", cfgs[i].Ticks),
			fmt.Sprintf("%.2f", v.LossPercent),
			fmt.Sprintf("%d", v.Redirects),
			fmt.Sprintf("%.2f", redirect.P99Ms),
			fmt.Sprintf("%.0f", v.BytesPerSession),
			fmt.Sprintf("%d", v.Shards),
		})
	}
	return &FigureResult{
		ID:     "vserve-scale",
		Title:  "Virtual Fleet at Scale: client fidelity, redirect latency and footprint vs population",
		Header: []string{"sessions", "ticks", "client loss %", "redirects", "redirect p99 ms", "bytes/session", "shards"},
		Rows:   rows,
		Notes: []string{
			"sessions are compact per-shard array state; placement is the shared nearest-k index with a consistent-hash overflow ring under the cap",
			"the session cap leaves half a standard deviation of headroom over the mean per-repository load, so the busiest homes overflow and redirect",
			"the horizon shrinks as the population grows to keep sweep cost flat; fidelity is time-normalized",
		},
	}, nil
}

// vserveFlashBursts are the burst widths (fraction of the horizon the
// arrival wave is spread over) — sharper bursts stress admission,
// placement and resync harder.
var vserveFlashBursts = []float64{0.5, 0.2, 0.05}

// FigureVServeFlash slams a flash crowd onto the hottest item: half the
// registered population starts detached and arrives in a Pareto burst,
// every arrival resyncing against its repository's current copies. The
// table reports the serving layer's behaviour as the burst sharpens.
func FigureVServeFlash(s Scale) (*FigureResult, error) {
	var cfgs []Config
	var trees []*obs.Tree
	for _, burst := range vserveFlashBursts {
		cfg := s.base()
		cfg.CoopDegree = 0                // controlled cooperation
		cfg.Clients, cfg.Queries = 0, nil // this figure owns the population
		cfg.VirtualSessions = 20 * cfg.Repositories
		// The steady base is half the population (mean load 10/repo); the
		// crowd doubles it, so a cap of 22 makes the burst overflow the
		// busiest homes through the ring.
		cfg.SessionCap = 22
		cfg.Scenario = fmt.Sprintf("flash:at=0.3,frac=0.5,burst=%g", burst)
		cfg.Obs = obs.NewTree()
		trees = append(trees, cfg.Obs)
		cfgs = append(cfgs, cfg)
	}
	outs, err := s.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	rows := make([][]string, 0, len(outs))
	for i, out := range outs {
		v := out.VServe
		if v == nil {
			return nil, fmt.Errorf("core: vserve-flash point %d ran without virtual stats", i)
		}
		_, _, redirect, _ := trees[i].Merged()
		rows = append(rows, []string{
			fmt.Sprintf("%g", vserveFlashBursts[i]),
			fmt.Sprintf("%d", v.Sessions),
			fmt.Sprintf("%d", v.Arrivals),
			fmt.Sprintf("%.2f", v.LossPercent),
			fmt.Sprintf("%.4f", v.WorstFidelity),
			fmt.Sprintf("%d", v.Redirects),
			fmt.Sprintf("%.2f", redirect.P99Ms),
			fmt.Sprintf("%d", v.Resyncs),
		})
	}
	return &FigureResult{
		ID:     "vserve-flash",
		Title:  "Flash Crowd onto the Hot Item: serving-layer behaviour vs burst sharpness",
		Header: []string{"burst", "sessions", "arrivals", "client loss %", "worst fidelity", "redirects", "redirect p99 ms", "resyncs"},
		Rows:   rows,
		Notes: []string{
			"half the registered population starts detached and arrives in a Pareto burst on the hot item (flash:at=0.3,frac=0.5)",
			"the overlay is provisioned for the registered demand, so the hot item disseminates before the burst lands",
			"every arrival resyncs against its repository's current copies; sharper bursts concentrate that work",
		},
	}, nil
}
