package core

import (
	"fmt"
	"os"
	"path/filepath"

	"d3t/internal/resilience"
)

// This file holds the resilience evaluation: the two figures the paper's
// "evaluation in a real setting" future work calls for once failures
// enter the picture. Both run through the ordinary sweep runner, so they
// share substrate caches and the worker pool with every other figure.

// churnGrid is the x-axis of the fidelity-vs-failure-rate sweep: expected
// crashes per 100 trace ticks across the repository population.
var churnGrid = []float64{0, 0.5, 1, 2, 4}

// detectKs are the detection-window curves: a silent parent is declared
// dead after k heartbeat intervals.
var detectKs = []int{2, 3, 5}

// FigureFaultFidelity measures loss of fidelity as the failure rate
// grows, one curve per detection window. Every point runs the resilient
// runner — the zero-rate point is the fault-free baseline under the same
// heartbeat machinery, so the curves isolate the cost of churn itself.
func FigureFaultFidelity(s Scale) (*FigureResult, error) {
	var cfgs []Config
	for _, k := range detectKs {
		for _, rate := range churnGrid {
			cfg := s.base()
			cfg.CoopDegree = 0 // controlled cooperation
			cfg.Faults = fmt.Sprintf("churn:%g", rate)
			cfg.DetectTicks = k
			cfgs = append(cfgs, cfg)
		}
	}
	outs, err := s.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	var series []Series
	i := 0
	for _, k := range detectKs {
		se := Series{Label: fmt.Sprintf("window=%d", k)}
		for _, rate := range churnGrid {
			se.X = append(se.X, rate)
			se.Y = append(se.Y, outs[i].LossPercent)
			i++
		}
		series = append(series, se)
	}
	return &FigureResult{
		ID:     "res-fidelity",
		Title:  "Fidelity under Repository Churn (loss vs failure rate)",
		XLabel: "Failure Rate (crashes per 100 ticks)",
		YLabel: "Loss of Fidelity (%)",
		Series: series,
		Notes: []string{
			"seeded Poisson churn; crashed repositories rejoin after an exponential downtime (mean 50 ticks)",
			"window = detection silence threshold in heartbeat intervals; smaller windows repair sooner",
		},
	}, nil
}

// FigureRecoveryLatency measures how long dependents stay severed after
// an interior-node crash, across the cooperation sweep. The detection
// window bounds recovery; the degree of cooperation shapes how many
// dependents each failure strands and how much spare capacity the
// backups have.
func FigureRecoveryLatency(s Scale) (*FigureResult, error) {
	crashTick := s.Base.Ticks / 8
	if crashTick < 1 {
		crashTick = 1
	}
	var cfgs []Config
	for _, coop := range s.CoopGrid {
		cfg := s.base()
		cfg.CoopDegree = coop
		if coop > cfg.Repositories {
			cfg.CoopDegree = cfg.Repositories
		}
		cfg.Faults = fmt.Sprintf("crash:max@%d", crashTick)
		cfgs = append(cfgs, cfg)
	}
	outs, err := s.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	mean := Series{Label: "mean recovery"}
	worst := Series{Label: "max recovery"}
	rehomed := Series{Label: "feeds re-homed"}
	for i, coop := range s.CoopGrid {
		r := outs[i].Resilience
		if r == nil {
			return nil, fmt.Errorf("core: res-recovery point %d ran without resilience stats", i)
		}
		mean.X = append(mean.X, float64(coop))
		mean.Y = append(mean.Y, r.MeanRecovery.Seconds())
		worst.X = append(worst.X, float64(coop))
		worst.Y = append(worst.Y, r.MaxRecovery.Seconds())
		rehomed.X = append(rehomed.X, float64(coop))
		rehomed.Y = append(rehomed.Y, float64(r.Rehomed))
	}
	window := resilience.Config{}.WithDefaults().Window()
	return &FigureResult{
		ID:     "res-recovery",
		Title:  "Recovery Latency after an Interior-Node Crash vs Degree of Cooperation",
		XLabel: "Degree of Cooperation",
		YLabel: "Recovery Latency (s) / Feeds Re-homed",
		Series: []Series{mean, worst, rehomed},
		Notes: []string{
			fmt.Sprintf("the busiest interior repository crashes at tick %d and never rejoins", crashTick),
			fmt.Sprintf("detection silence window = %v; recovery = crash-to-re-home time over all severed feeds", window),
		},
	}, nil
}

// snapGrid is the x-axis of the disk-recovery sweep: commits between
// snapshot rotations. Small intervals snapshot often and replay almost
// nothing; large intervals amortize snapshot writes but replay a long
// log tail at recovery.
var snapGrid = []int{1, 4, 16, 64, 256}

// FigureRecoveryDisk measures recovery from durable state: the busiest
// interior repository is killed (process death, in-memory state lost)
// and recovers from its write-ahead log, once per snapshot interval.
// Replay cost is the modeled snapshot-load plus per-record time, so the
// figure is deterministic — the trade it shows is how the snapshot
// interval bounds the log tail a recovering node must replay.
func FigureRecoveryDisk(s Scale) (*FigureResult, error) {
	crashTick := s.Base.Ticks / 3
	if crashTick < 1 {
		crashTick = 1
	}
	down := s.Base.Ticks / 8
	if down < 1 {
		down = 1
	}
	root, err := os.MkdirTemp("", "d3t-res-recovery-disk-")
	if err != nil {
		return nil, fmt.Errorf("core: res-recovery-disk scratch dir: %w", err)
	}
	defer os.RemoveAll(root)
	var cfgs []Config
	for _, every := range snapGrid {
		cfg := s.base()
		cfg.CoopDegree = 0 // controlled cooperation
		cfg.Faults = fmt.Sprintf("kill:max@%d+%d", crashTick, down)
		cfg.Durability = DurabilityConfig{
			Dir:           filepath.Join(root, fmt.Sprintf("snap%03d", every)),
			SnapshotEvery: every,
			Fsync:         "never", // scratch dirs; policy does not change what is measured
		}
		cfgs = append(cfgs, cfg)
	}
	outs, err := s.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	replay := Series{Label: "replay time (ms)"}
	records := Series{Label: "records replayed"}
	for i, every := range snapGrid {
		r := outs[i].Resilience
		if r == nil {
			return nil, fmt.Errorf("core: res-recovery-disk point %d ran without resilience stats", i)
		}
		if r.DiskRecoveries == 0 {
			return nil, fmt.Errorf("core: res-recovery-disk point %d recovered nothing from disk", i)
		}
		replay.X = append(replay.X, float64(every))
		replay.Y = append(replay.Y, r.MeanReplay.Ms())
		records.X = append(records.X, float64(every))
		records.Y = append(records.Y, float64(r.ReplayedRecords))
	}
	cfg := resilience.Config{}.WithDefaults()
	return &FigureResult{
		ID:     "res-recovery-disk",
		Title:  "Disk Recovery Time vs Snapshot Interval (kill and recover from WAL)",
		XLabel: "Snapshot Interval (commits between rotations)",
		YLabel: "Replay Time (ms) / Records Replayed",
		Series: []Series{replay, records},
		Notes: []string{
			fmt.Sprintf("the busiest interior repository is killed at tick %d and recovers from its log %d ticks later", crashTick, down),
			fmt.Sprintf("modeled replay cost: %v snapshot load + %v per replayed record", cfg.SnapshotLoad, cfg.ReplayPerRecord),
			"recovered state is the pre-crash state bit-for-bit; the detection window still dominates end-to-end recovery",
		},
	}, nil
}
