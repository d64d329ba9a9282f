//go:build race

package netio

// raceEnabled gates allocation assertions: the race detector's
// instrumentation allocates on its own, so alloc-free invariants cannot
// hold under -race.
const raceEnabled = true
