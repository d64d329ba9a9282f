// Flashcrowd: the serving fleet under a flash crowd. Sessions are
// compact per-shard array state (no object, no goroutine per session),
// so one process holds large populations — here 50,000 synthetic
// sessions over 30 repositories. Half the population starts
// detached and slams onto the hottest item in a Pareto burst; every
// arrival is placed through the shared nearest-k index (overflowing
// through the consistent-hash ring under the session cap) and resyncs
// against its repository's current copies. A second run sharpens the
// burst, and a third fails a repository region mid-crowd.
//
//	go run ./examples/flashcrowd
package main

import (
	"fmt"
	"log"

	"d3t"
)

func main() {
	base := d3t.DefaultConfig()
	base.Repositories, base.Routers = 30, 90
	base.Items, base.Ticks = 15, 900
	base.Seed = 11
	base.VirtualSessions = 50000
	base.SessionCap = 1700 // barely above the ~1667/repo mean once the crowd lands

	wide := base
	wide.Scenario = "flash:at=0.3,frac=0.5,burst=0.4"

	sharp := base
	sharp.Scenario = "flash:at=0.3,frac=0.5,burst=0.05"

	regional := base
	regional.Scenario = "regional:at=0.4,frac=0.25,rejoin=0.7"

	runner := d3t.NewSweepRunner(0)
	outs, err := runner.RunAll([]d3t.Config{wide, sharp, regional})
	if err != nil {
		log.Fatal(err)
	}

	labels := []string{"wide burst (40% of run)", "sharp burst (5% of run)", "regional failure (25%)"}
	fmt.Println("scenario                  clientFid  worst   arrivals  redirects  migr+orph  resyncs  bytes/sess")
	for i, out := range outs {
		v := out.VServe
		fmt.Printf("%-25s %.4f     %.4f  %-8d  %-9d  %-9d  %-7d  %.0f\n",
			labels[i], v.MeanFidelity, v.WorstFidelity, v.Arrivals,
			v.Redirects, v.Migrations+v.Orphaned, v.Resyncs, v.BytesPerSession)
	}

	v := outs[1].VServe
	fmt.Printf("\nthe sharp burst lands %d sessions in ~45 ticks — each admitted in O(k) through\n", v.Arrivals)
	fmt.Printf("the placement index and caught up via %d resync values. The whole population\n", v.Resyncs)
	fmt.Printf("is %d sessions of flat array state at %.0f resident bytes each, in %d shards.\n",
		v.Sessions, v.BytesPerSession, v.Shards)
}
