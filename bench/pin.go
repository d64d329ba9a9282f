package main

import (
	"fmt"
	"math"
	"runtime"
)

// pin is the recorded outcome of one full-size simulator experiment. The
// simulator is deterministic in its seed, so anything that moves one of
// these numbers has changed what the simulator computes, not how fast.
type pin struct {
	lossPct          float64
	messages, events uint64
	// Of the fleet, where there is one: session decisions and the loss
	// its clients saw.
	delivered, filtered uint64
	fleetLossPct        float64
}

// pins holds seed 1 of each simulator workload (recorded on amd64).
var pins = map[string]map[int64]pin{
	"sim-plain": {1: {lossPct: 0.385219, messages: 925004, events: 1010098}},
	"sim-fleet": {1: {lossPct: 4.438541, messages: 66200, events: 82259,
		delivered: 3469354, filtered: 12407668, fleetLossPct: 0.647723}},
}

// checkPin compares a run with the pin for its seed, if there is one.
// Floating-point results are pinned only on amd64: elsewhere the compiler
// may fuse multiply-adds, which can move a value across a filter
// threshold and with it every count downstream.
func checkPin(workload string, r simRun) []string {
	want, ok := pins[workload][r.seed]
	if !ok || runtime.GOARCH != "amd64" {
		return nil
	}
	var bad []string
	out := r.out
	if math.Abs(out.LossPercent-want.lossPct) > 1e-4 {
		bad = append(bad, fmt.Sprintf("loss %.6f %%, pinned %.6f", out.LossPercent, want.lossPct))
	}
	if out.Stats.Messages != want.messages || out.Stats.Events != want.events {
		bad = append(bad, fmt.Sprintf("%d messages %d events, pinned %d and %d",
			out.Stats.Messages, out.Stats.Events, want.messages, want.events))
	}
	if v := out.VServe; v != nil {
		if v.Delivered != want.delivered || v.Filtered != want.filtered {
			bad = append(bad, fmt.Sprintf("fleet delivered %d filtered %d, pinned %d and %d",
				v.Delivered, v.Filtered, want.delivered, want.filtered))
		}
		if math.Abs(v.LossPercent-want.fleetLossPct) > 1e-4 {
			bad = append(bad, fmt.Sprintf("client loss %.6f %%, pinned %.6f", v.LossPercent, want.fleetLossPct))
		}
	}
	return bad
}
