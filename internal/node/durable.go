package node

import (
	"sort"

	"d3t/internal/repository"
	"d3t/internal/sim"
	"d3t/internal/wal"
)

// This file is the core's durability surface: what a write-ahead log
// snapshots (DumpDurable), how recovery puts it back (SetValue +
// RestoreEdge + replaying logged updates through Apply with a
// ReplayTransport), how a process death is modeled in-process
// (WipeDurable), and Durable, the one piece of glue that binds a core to
// its log for all three backends. The durable state is exactly the two
// things Eqs. 3+7 depend on: the per-item values and each outgoing
// edge's (last, seeded) filter state — with them restored, the first
// post-recovery update is suppressed or forwarded precisely as if the
// crash never happened.

// Durable binds a core to its write-ahead log: OpenDurable recovers the
// directory into the core, Append + Commit are the group commit on the
// backend's batch boundary, and the first log failure is latched for
// Err. A nil *Durable is the WAL-off state — every method is a no-op —
// so backends call it unconditionally.
//
// Durable takes no lock. The backend serializes every call, and every
// Apply on the core, on the one lock that guards that core (the
// simulator's single thread, live's shard mutex, netio's Node.mu).
//
// The ordering invariant, stated once: log after the core applies, under
// the core's lock. Append only buffers, but Commit may rotate — snapshot
// the core and delete the segment holding the batch's records — so by
// the time Commit runs the core must already hold every update appended
// since the last one.
type Durable struct {
	core *Core
	vals map[string]float64
	log  *wal.Log
	err  error
}

// OpenDurable opens the log directory, restores whatever it holds —
// the snapshot verbatim, then the logged batches through the core's
// normal Apply pipeline with a ReplayTransport, so edge filter state
// advances exactly as it did before the crash — and keeps the log open
// for appending. The recovery is returned for the caller's accounting.
//
// c may be nil for a protocol that keeps no cores: then vals alone
// receives the recovered values and is what a snapshot dumps. With a
// core, a non-nil vals mirrors the recovered values (the simulator
// keeps such a map per node); the core is what a snapshot dumps.
func OpenDurable(dir string, opts wal.Options, c *Core, vals map[string]float64) (*Durable, *wal.Recovered, error) {
	log, rec, err := wal.Open(dir, opts)
	if err != nil {
		return nil, nil, err
	}
	if vals != nil {
		for item, v := range rec.State.Values {
			vals[item] = v
		}
		for _, b := range rec.Batches {
			for _, u := range b {
				vals[u.Item] = u.Value
			}
		}
	}
	if c != nil {
		for item, v := range rec.State.Values {
			c.SetValue(item, v)
		}
		for _, e := range rec.State.Edges {
			c.RestoreEdge(repository.ID(e.Dep), e.Item, e.Last, e.Seeded)
		}
		for _, b := range rec.Batches {
			for _, u := range b {
				c.Apply(u.Item, u.Value, ReplayTransport{})
			}
		}
	}
	return &Durable{core: c, vals: vals, log: log}, rec, nil
}

// state dumps what a snapshot rotation persists: the core's values and
// seeded edges, or the bare value map of a protocol without cores.
func (d *Durable) state() wal.State {
	st := wal.State{Values: make(map[string]float64, len(d.vals))}
	if d.core == nil {
		for item, v := range d.vals {
			st.Values[item] = v
		}
		return st
	}
	d.core.DumpDurable(
		func(item string, v float64) { st.Values[item] = v },
		func(dep repository.ID, item string, last float64, seeded bool) {
			st.Edges = append(st.Edges, wal.Edge{Dep: int64(dep), Item: item, Last: last, Seeded: seeded})
		})
	return st
}

// Append buffers one applied update for the current batch; no IO.
func (d *Durable) Append(item string, v float64) {
	if d != nil {
		d.log.Append(item, v)
	}
}

// Commit group-commits the appended batch as one log record (an empty
// batch commits to nothing), rotating the snapshot when due.
func (d *Durable) Commit() {
	if d == nil {
		return
	}
	if err := d.log.Commit(d.state); err != nil && d.err == nil {
		d.err = err
	}
}

// Close flushes and closes the log (per its fsync policy). Closing
// twice is harmless.
func (d *Durable) Close() {
	if d == nil {
		return
	}
	if err := d.log.Close(); err != nil && d.err == nil {
		d.err = err
	}
}

// Err reports the first log failure, or nil. After a non-nil error,
// commits may be missing from what a recovery over the same directory
// replays.
func (d *Durable) Err() error {
	if d == nil {
		return nil
	}
	return d.err
}

// DumpDurable streams the core's durable state in a deterministic order:
// every held value (sorted by item), then every seeded outgoing edge
// (items sorted, edges in plan order). Unseeded edges carry no filter
// state and are skipped — recovery recreates them unseeded, which is
// already their semantics.
func (c *Core) DumpDurable(value func(item string, v float64), edge func(dep repository.ID, item string, last float64, seeded bool)) {
	items := make([]string, 0, len(c.values))
	for item := range c.values {
		items = append(items, item)
	}
	sort.Strings(items)
	for _, item := range items {
		value(item, c.values[item])
	}
	if edge == nil || len(c.plans) == 0 {
		return
	}
	planned := make([]string, 0, len(c.plans))
	for item := range c.plans {
		planned = append(planned, item)
	}
	sort.Strings(planned)
	for _, item := range planned {
		p := c.plans[item]
		for i := range p.deps {
			e := &p.deps[i]
			if e.seeded {
				edge(e.id, item, e.last, e.seeded)
			}
		}
	}
}

// RestoreEdge sets one outgoing edge's filter state to a recovered
// (last, seeded) pair. Unlike ResetEdge it restores the flag verbatim
// rather than forcing a seeded post-resync state. A dependent the
// current wiring no longer carries is ignored.
func (c *Core) RestoreEdge(dep repository.ID, item string, last float64, seeded bool) {
	p := c.plan(item)
	if p == nil {
		return
	}
	for i := range p.deps {
		if p.deps[i].id == dep {
			p.deps[i].last, p.deps[i].seeded = last, seeded
			return
		}
	}
}

// WipeDurable models a process death for transports that keep the Core
// object across a kill (the simulator): values, fan-out plans and their
// filter state, and the retired decision tallies all vanish, exactly
// what a real crash loses without a log. Wiring (the repository pointer)
// survives — it belongs to the overlay, not the process.
func (c *Core) WipeDurable() {
	c.values = make(map[string]float64)
	c.plans = make(map[string]*plan)
	c.retired = make(map[string]Decisions)
}

// ReplayTransport drives Apply during log replay: time is pinned, every
// dependent send is accepted (the pre-crash process already delivered
// or filtered these updates; replay only needs the edge state to
// advance identically), and client sends go nowhere (sessions did not
// survive the crash).
type ReplayTransport struct {
	// At is the replay's fixed timestamp.
	At sim.Time
}

// Now returns the pinned replay time.
func (r ReplayTransport) Now() sim.Time { return r.At }

// SendToDependent accepts every copy so the edge's (last, seeded) state
// advances exactly as it did before the crash.
func (r ReplayTransport) SendToDependent(repository.ID, string, float64, bool) bool { return true }

// SendToClient drops the copy; no session outlives the process.
func (r ReplayTransport) SendToClient(*Session, string, float64, bool) {}
