//go:build race

package live

// raceEnabled gates allocation assertions: the race detector's
// instrumentation allocates on its own, so alloc-free invariants cannot
// hold under -race.
const raceEnabled = true
