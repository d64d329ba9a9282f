// Sharded: the same bursty workload run unsharded, sharded, batched, and
// both. Sharding hash-partitions the independent per-item dissemination
// trees across parallel runs of the one simulation loop (the registry
// figures stay byte-identical because the partition is exact); batching
// coalesces each item's bursts into the newest value per window, trading
// update volume for staleness inside the window. The printed fidelity
// shows the first is free and the second is a measured, bounded trade.
//
//	go run ./examples/sharded
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"d3t"
)

func main() {
	points := []struct {
		label  string
		shards int
		batch  int
	}{
		{"sequential", 1, 0},
		{"8 shards", 8, 0},
		{"batch window 5", 1, 5},
		{"8 shards + batch 5", 8, 5},
	}

	fmt.Printf("bursty workload, 40 repositories x 48 items (GOMAXPROCS=%d)\n\n", runtime.GOMAXPROCS(0))
	fmt.Printf("%-20s %10s %12s %12s %12s %14s\n",
		"run", "loss %", "messages", "updates", "coalesced", "updates/s")
	for _, pt := range points {
		cfg := d3t.DefaultConfig()
		cfg.Repositories = 40
		cfg.Routers = 120
		cfg.Items = 48
		cfg.Ticks = 2000
		cfg.Workload = "bursty"
		cfg.Shards = pt.shards
		cfg.BatchTicks = pt.batch
		start := time.Now()
		out, err := d3t.RunExperiment(cfg)
		if err != nil {
			log.Fatal(err)
		}
		rate := float64(out.Stats.SourceTicks) / time.Since(start).Seconds()
		fmt.Printf("%-20s %9.2f%% %12d %12d %12d %14.0f\n",
			pt.label, out.LossPercent, out.Stats.Messages, out.Stats.SourceTicks, out.Coalesced, rate)
	}
	fmt.Println("\nsharding never changes a decision (see TestCrossBackendParity);")
	fmt.Println("batching trades disseminated volume for bounded in-window staleness.")
}
