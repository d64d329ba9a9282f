package trace

// CoalesceTrace folds a trace's value changes through batch windows of
// batchTicks ticks: within each window only the last value survives, at
// the time it appeared; changes it superseded are counted as coalesced.
// A window whose net change is zero (the value returned to its pre-window
// level) emits nothing. The trace's observation horizon is preserved by a
// final no-change guard tick at the original end time, so fidelity
// denominators match the uncoalesced run. With batchTicks <= 1 (or a
// trivial trace) the input is returned unchanged.
//
// The result is a pure function of the inputs and the input is never
// modified, so cached trace sets can be coalesced concurrently. Every
// backend that feeds from a coalesced trace set disseminates the
// identical update sequence, which is what keeps cross-backend decision
// parity intact under batching.
func CoalesceTrace(tr *Trace, batchTicks int) (*Trace, uint64) {
	if batchTicks <= 1 || tr.Len() <= 1 {
		return tr, 0
	}
	out := &Trace{Item: tr.Item, Ticks: []Tick{tr.Ticks[0]}}
	last := tr.Ticks[0].Value
	var folded uint64
	for w := 1; w < tr.Len(); w += batchTicks {
		end := min(w+batchTicks, tr.Len())
		changes, lastChange := 0, -1
		cur := last
		for i := w; i < end; i++ {
			if tr.Ticks[i].Value != cur {
				cur = tr.Ticks[i].Value
				lastChange = i
				changes++
			}
		}
		if lastChange < 0 {
			continue // quiet window
		}
		if cur == last {
			folded += uint64(changes) // net-zero window: all folded
			continue
		}
		out.Ticks = append(out.Ticks, tr.Ticks[lastChange])
		last = cur
		folded += uint64(changes - 1)
	}
	if endAt := tr.Ticks[tr.Len()-1].At; out.Ticks[len(out.Ticks)-1].At != endAt {
		out.Ticks = append(out.Ticks, Tick{At: endAt, Value: last})
	}
	return out, folded
}

// CoalesceTraces applies CoalesceTrace to a whole trace set, returning
// the coalesced set (the input itself when batchTicks <= 1) and the total
// folded-update count.
func CoalesceTraces(traces []*Trace, batchTicks int) ([]*Trace, uint64) {
	if batchTicks <= 1 {
		return traces, 0
	}
	out := make([]*Trace, len(traces))
	var folded uint64
	for i, tr := range traces {
		c, n := CoalesceTrace(tr, batchTicks)
		out[i] = c
		folded += n
	}
	return out, folded
}
