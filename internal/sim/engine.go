// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate on which the dissemination experiments run:
// trace ticks, update forwarding, and delivery are all events ordered on a
// virtual clock. Determinism matters because the paper's figures are
// parameter sweeps; for a fixed seed, two runs of the same configuration
// must produce identical fidelity numbers. The engine therefore breaks
// timestamp ties by insertion sequence, never by map iteration or heap
// internals.
//
// Every figure is a sweep over this loop, so its host speed is the cost
// of reproducing the paper. Events are therefore values {at, seq, kind,
// payload} in a slice-backed 4-ary min-heap, with no pointer in them: the
// steady state allocates nothing and the collector never scans the
// queue. Kind 0 is a closure (At, After), kept in a side table; other
// kinds carry a fixed-layout Payload to the one handler the engine's
// owner installs (Handle, Schedule). A feed known up front stays out of
// the heap: SetLane merges time-ordered cursors against the heap head,
// so the heap is as deep as the work in flight, not as the traces are
// long.
package sim

import "fmt"

// Time is virtual simulation time in microseconds. Microsecond resolution
// comfortably covers the paper's parameter space (delays are milliseconds,
// traces span hours) without floating-point drift in the event heap.
type Time int64

// Common durations expressed in simulation time units.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Milliseconds converts a floating-point millisecond count to Time,
// rounding to the nearest microsecond.
func Milliseconds(ms float64) Time {
	return Time(ms*1000 + 0.5)
}

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Ms reports t as floating-point milliseconds.
func (t Time) Ms() float64 { return float64(t) / float64(Millisecond) }

// String formats the time as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Kind selects what a typed event does: the engine hands it, with the
// event's payload, to the handler. Kind 0 is reserved for closures.
type Kind uint8

// Payload is the fixed, pointer-free layout every typed event carries.
// The engine assigns the fields no meaning: the dissemination loop fills
// all of them for an update copy in flight, small kinds use To and From.
type Payload struct {
	To, From, Item int32
	V, Tag         float64
	Hop, Born      Time
	Trace          uint64
}

// event is one queue entry. seq is the insertion order for heap events
// and the cursor index for lane events; a closure event keeps its
// function in Engine.fns at slot p.Item.
type event struct {
	at   Time
	seq  uint64
	kind Kind
	p    Payload
}

// before is the one event ordering: by time, ties by sequence.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// queue is a 4-ary min-heap of events under before: half the depth of a
// binary heap, and a node's four children share cache lines.
type queue []event

func (q *queue) push(ev event) {
	*q = append(*q, ev)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// down restores the heap after its head was replaced.
func (q queue) down() {
	ev, i := q[0], 0
	for {
		first := 4*i + 1
		if first >= len(q) {
			break
		}
		m := first
		for c := first + 1; c < first+4 && c < len(q); c++ {
			if q[c].before(&q[m]) {
				m = c
			}
		}
		if !q[m].before(&ev) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = ev
}

// pop removes the head.
func (q *queue) pop() {
	h := *q
	n := len(h) - 1
	h[0] = h[n]
	*q = h[:n]
	if n > 1 {
		h[:n].down()
	}
}

// Engine is a single-threaded discrete-event scheduler. The zero value is
// ready to use. Engines are not safe for concurrent use; the experiments
// achieve parallelism by running independent engines per goroutine.
type Engine struct {
	heap    queue
	now     Time
	nextSeq uint64
	events  uint64 // total events executed
	handler func(now Time, kind Kind, p Payload)
	// fns holds the pending closures, free its reusable slots.
	fns  []func(now Time)
	free []int32
	// lane holds the head event of every live cursor of the source feed
	// (seq is the cursor index); feed yields a cursor's next event.
	lane queue
	feed func(cursor int) (at Time, p Payload, ok bool)
}

// New returns an empty engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time. During event execution it equals
// the running event's timestamp.
func (e *Engine) Now() Time { return e.now }

// Processed reports how many events have been executed so far.
func (e *Engine) Processed() uint64 { return e.events }

// Pending reports how many events are queued but not yet executed. Of a
// lane only each live cursor's next event is queued.
func (e *Engine) Pending() int { return len(e.heap) + len(e.lane) }

// Handle installs the handler every typed event is dispatched through.
func (e *Engine) Handle(h func(now Time, kind Kind, p Payload)) { e.handler = h }

// Schedule queues a typed event (kind > 0) at absolute virtual time t.
// Scheduling in the past (t < Now) panics: it indicates a logic error in
// a delay computation and silently clamping it would corrupt fidelity
// accounting.
func (e *Engine) Schedule(t Time, kind Kind, p Payload) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.heap.push(event{at: t, seq: e.nextSeq, kind: kind, p: p})
	e.nextSeq++
}

// At schedules fn to run at absolute virtual time t; like Schedule it
// panics on a time in the past.
func (e *Engine) At(t Time, fn func(now Time)) {
	slot := int32(len(e.fns))
	if n := len(e.free); n > 0 {
		slot, e.free = e.free[n-1], e.free[:n-1]
		e.fns[slot] = fn
	} else {
		e.fns = append(e.fns, fn)
	}
	e.Schedule(t, 0, Payload{Item: slot})
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func(now Time)) {
	e.At(e.now+d, fn)
}

// SetLane installs the source feed: n cursors, each yielding typed events
// of the given kind in non-decreasing time order through feed, merged
// against the heap without entering it. Lane events run by (time, cursor
// index) — the heap's ordering with the cursor index as the sequence —
// and before any heap event of the same time: exactly the order of
// scheduling them all up front, cursor by cursor, before anything else
// (they would hold the lowest sequence numbers, ascending with the
// cursor). Each counts as one processed event.
func (e *Engine) SetLane(kind Kind, n int, feed func(cursor int) (at Time, p Payload, ok bool)) {
	e.lane, e.feed = e.lane[:0], feed
	for c := 0; c < n; c++ {
		if at, p, ok := feed(c); ok {
			e.lane.push(event{at: at, seq: uint64(c), kind: kind, p: p})
		}
	}
}

// Step executes the single earliest pending event and reports whether one
// was available.
func (e *Engine) Step() bool { return e.step(maxTime) }

const maxTime = Time(1<<63 - 1)

// step executes the earliest pending event unless it lies after deadline.
func (e *Engine) step(deadline Time) bool {
	var ev event
	switch {
	case len(e.lane) > 0 && (len(e.heap) == 0 || e.lane[0].at <= e.heap[0].at):
		if ev = e.lane[0]; ev.at > deadline {
			return false
		}
		if at, p, ok := e.feed(int(ev.seq)); !ok {
			e.lane.pop()
		} else if at < ev.at {
			panic(fmt.Sprintf("sim: lane cursor %d went back from %v to %v", ev.seq, ev.at, at))
		} else {
			e.lane[0].at, e.lane[0].p = at, p
			e.lane.down()
		}
	case len(e.heap) > 0:
		if ev = e.heap[0]; ev.at > deadline {
			return false
		}
		e.heap.pop()
	default:
		return false
	}
	e.now = ev.at
	e.events++
	if ev.kind != 0 {
		// The payload goes by value: a pointer into ev would make every
		// popped event escape through the func value.
		e.handler(ev.at, ev.kind, ev.p)
		return true
	}
	slot := ev.p.Item
	fn := e.fns[slot]
	e.fns[slot] = nil
	e.free = append(e.free, slot)
	fn(ev.at)
	return true
}

// Run executes events until the queue drains and returns the final clock
// value.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline, leaves later events
// queued, and advances the clock to exactly deadline. It returns the number
// of events executed.
func (e *Engine) RunUntil(deadline Time) uint64 {
	start := e.events
	for e.step(deadline) {
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.events - start
}
