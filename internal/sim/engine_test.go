package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := New()
	var got []Time
	for _, at := range []Time{30, 10, 20, 10, 5} {
		at := at
		e.At(at, func(now Time) {
			if now != at {
				t.Errorf("event scheduled at %v ran at %v", at, now)
			}
			got = append(got, now)
		})
	}
	end := e.Run()
	want := []Time{5, 10, 10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d ran at %v, want %v", i, got[i], want[i])
		}
	}
	if end != 30 {
		t.Errorf("Run returned %v, want 30", end)
	}
}

func TestEngineBreaksTiesByInsertionOrder(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		e.At(100, func(Time) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie at index %d broken as %d; ties must run in insertion order", i, v)
		}
	}
}

func TestEngineAfterSchedulesRelative(t *testing.T) {
	e := New()
	var fired Time
	e.At(10, func(now Time) {
		e.After(5, func(now Time) { fired = now })
	})
	e.Run()
	if fired != 15 {
		t.Errorf("After(5) from t=10 fired at %v, want 15", fired)
	}
}

func TestEnginePanicsOnPastScheduling(t *testing.T) {
	e := New()
	e.At(10, func(now Time) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func(Time) {})
	})
	e.Run()
}

func TestEngineRunUntil(t *testing.T) {
	e := New()
	ran := 0
	for _, at := range []Time{10, 20, 30, 40} {
		e.At(at, func(Time) { ran++ })
	}
	n := e.RunUntil(25)
	if n != 2 || ran != 2 {
		t.Fatalf("RunUntil(25) executed %d events (counter %d), want 2", n, ran)
	}
	if e.Now() != 25 {
		t.Errorf("clock at %v after RunUntil(25)", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("%d events pending, want 2", e.Pending())
	}
	e.Run()
	if ran != 4 {
		t.Errorf("after Run, %d events ran, want 4", ran)
	}
}

func TestEngineStepOnEmptyQueue(t *testing.T) {
	e := New()
	if e.Step() {
		t.Error("Step on empty queue reported work")
	}
}

// TestEngineOrderProperty: for any set of timestamps, execution order is a
// non-decreasing sequence of times.
func TestEngineOrderProperty(t *testing.T) {
	f := func(stamps []uint16) bool {
		e := New()
		var got []Time
		for _, s := range stamps {
			at := Time(s)
			e.At(at, func(now Time) { got = append(got, now) })
		}
		e.Run()
		if len(got) != len(stamps) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStationSerializesWork(t *testing.T) {
	var s Station
	d1 := s.Acquire(0, 10)
	d2 := s.Acquire(0, 10)
	d3 := s.Acquire(5, 10)
	if d1 != 10 || d2 != 20 || d3 != 30 {
		t.Errorf("completion times %v,%v,%v; want 10,20,30", d1, d2, d3)
	}
	if got := s.Backlog(5); got != 25 {
		t.Errorf("Backlog(5)=%v, want 25", got)
	}
	if got := s.Backlog(100); got != 0 {
		t.Errorf("Backlog(100)=%v, want 0", got)
	}
}

func TestStationIdleGap(t *testing.T) {
	var s Station
	s.Acquire(0, 10)
	// Work arriving after the backlog drains starts immediately.
	if done := s.Acquire(50, 5); done != 55 {
		t.Errorf("job after idle gap completed at %v, want 55", done)
	}
	if s.Jobs != 2 || s.Busy != 15 {
		t.Errorf("stats Jobs=%d Busy=%v, want 2, 15", s.Jobs, s.Busy)
	}
}

func TestStationUtilization(t *testing.T) {
	var s Station
	s.Acquire(0, 25)
	if u := s.Utilization(100); u != 0.25 {
		t.Errorf("utilization %v, want 0.25", u)
	}
	if u := s.Utilization(0); u != 0 {
		t.Errorf("utilization with zero horizon %v, want 0", u)
	}
	// Utilization is clamped to 1 even when the backlog exceeds the horizon.
	s.Acquire(0, 1000)
	if u := s.Utilization(100); u != 1 {
		t.Errorf("overloaded utilization %v, want 1", u)
	}
}

// TestStationMonotoneProperty: completion times never decrease, no matter
// the arrival pattern — a station is FIFO.
func TestStationMonotoneProperty(t *testing.T) {
	f := func(arrivals []uint8, costs []uint8) bool {
		var s Station
		n := len(arrivals)
		if len(costs) < n {
			n = len(costs)
		}
		var prev Time = -1
		var now Time
		for i := 0; i < n; i++ {
			now += Time(arrivals[i]) // arrivals move forward in time
			done := s.Acquire(now, Time(costs[i]))
			if done < prev || done < now {
				return false
			}
			prev = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestParetoBounds(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const min, mean = 2.0, 15.0
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		d := Pareto(r, min, mean)
		if d < min {
			t.Fatalf("Pareto draw %v below minimum %v", d, min)
		}
		if d > 20*mean {
			t.Fatalf("Pareto draw %v above cap %v", d, 20*mean)
		}
		sum += d
	}
	got := sum / n
	// With alpha = mean/(mean-min) ~= 1.15, much of the nominal mean lives
	// in the far tail, so the 20x cap pulls the achievable mean down to
	// E[min(X,cap)] ~= 9.0 for (2, 15). Assert around that analytic value.
	if got < 0.5*mean || got > 0.85*mean {
		t.Errorf("empirical capped mean %v outside expected band [%v, %v]", got, 0.5*mean, 0.85*mean)
	}
}

func TestParetoDegenerate(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	if d := Pareto(r, 5, 5); d != 5 {
		t.Errorf("mean<=min should return min, got %v", d)
	}
	if d := Pareto(r, 5, 3); d != 5 {
		t.Errorf("mean<min should return min, got %v", d)
	}
}

func TestNewRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed produced different streams")
		}
	}
}

// TestEngineMatchesReferenceSort is the engine's model test: a seeded
// random mix of lane events, typed events, closure events and events
// scheduled from inside handlers (also at the current time) runs in
// exactly the order of a reference sort by (time, insertion sequence) —
// the lane's events standing for insertions made before any other, cursor
// by cursor. RunUntil leaves later events queued, and Pending and
// Processed account for every event.
func TestEngineMatchesReferenceSort(t *testing.T) {
	const laneKind, typedKind Kind = 1, 2
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		type ref struct {
			at  Time
			seq int // insertion sequence; lane events come first
			id  int32
		}
		var want []ref
		var got []int32
		nextID := int32(0)
		seq := 0
		e := New()

		// The lane: up to 4 cursors over time-ordered slices, ties allowed
		// within and across cursors.
		cursors := make([][]ref, rng.Intn(5))
		for c := range cursors {
			at := Time(rng.Intn(5))
			for i := rng.Intn(12); i > 0; i-- {
				at += Time(rng.Intn(3))
				r := ref{at: at, seq: seq, id: nextID}
				cursors[c] = append(cursors[c], r)
				want = append(want, r)
				seq, nextID = seq+1, nextID+1
			}
		}
		heapLeft, liveCursors := 0, len(cursors)

		// schedule queues one event at a random time >= from, typed or
		// closure; either way running it may schedule more.
		var schedule func(from Time, depth int)
		var ran func(now Time, id int32, depth int)
		schedule = func(from Time, depth int) {
			at := from + Time(rng.Intn(6)) // 0: at the current time
			id := nextID
			want = append(want, ref{at: at, seq: seq, id: id})
			seq, nextID, heapLeft = seq+1, nextID+1, heapLeft+1
			if rng.Intn(2) == 0 {
				e.Schedule(at, typedKind, Payload{Item: id, To: int32(depth)})
			} else {
				e.At(at, func(now Time) { ran(now, id, depth) })
			}
		}
		ran = func(now Time, id int32, depth int) {
			if now != e.Now() {
				t.Fatalf("seed %d: handler saw %v, clock at %v", seed, now, e.Now())
			}
			got = append(got, id)
			heapLeft--
			for n := rng.Intn(3); n > 0 && depth < 4; n-- {
				schedule(now, depth+1)
			}
		}
		e.Handle(func(now Time, kind Kind, p Payload) {
			if kind == laneKind {
				got = append(got, p.Item)
				return
			}
			ran(now, p.Item, int(p.To))
		})
		e.SetLane(laneKind, len(cursors), func(c int) (Time, Payload, bool) {
			if len(cursors[c]) == 0 {
				liveCursors--
				return 0, Payload{}, false
			}
			r := cursors[c][0]
			cursors[c] = cursors[c][1:]
			return r.at, Payload{Item: r.id}, true
		})
		for n := rng.Intn(20); n > 0; n-- {
			schedule(0, 0)
		}

		// Stop half way: exactly the events up to the deadline have run,
		// and the rest is queued — of the lane, one head per live cursor.
		const deadline = 6
		ranFirst := e.RunUntil(deadline)
		due := 0
		for _, r := range want {
			if r.at <= deadline {
				due++
			}
		}
		if e.Now() != deadline || ranFirst != uint64(due) || len(got) != due || e.Processed() != ranFirst {
			t.Fatalf("seed %d: RunUntil(%d) ran %d events (%d handled, Processed %d, clock %v), %d were due",
				seed, deadline, ranFirst, len(got), e.Processed(), e.Now(), due)
		}
		if e.Pending() != heapLeft+liveCursors {
			t.Fatalf("seed %d: Pending %d, want %d in the heap + %d lane heads", seed, e.Pending(), heapLeft, liveCursors)
		}
		e.Run()

		sort.SliceStable(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		})
		if len(got) != len(want) || e.Processed() != uint64(len(want)) || e.Pending() != 0 {
			t.Fatalf("seed %d: ran %d of %d events, Processed %d, Pending %d", seed, len(got), len(want), e.Processed(), e.Pending())
		}
		for i := range want {
			if got[i] != want[i].id {
				t.Fatalf("seed %d: event %d ran id %d, reference order has id %d (at %v)", seed, i, got[i], want[i].id, want[i].at)
			}
		}
	}
}

// TestEngineStepAllocFree pins the steady state of the typed path: once
// the heap slice has grown, scheduling and running a typed event — from
// the heap or from the lane — allocates nothing. (Handing the handler a
// pointer into the popped event would cost one allocation per step.)
func TestEngineStepAllocFree(t *testing.T) {
	e := New()
	var sum int32
	e.Handle(func(_ Time, _ Kind, p Payload) { sum += p.Item })
	var laneAt Time
	e.SetLane(1, 2, func(c int) (Time, Payload, bool) {
		laneAt++
		return laneAt, Payload{Item: int32(c)}, true
	})
	for i := 0; i < 64; i++ {
		e.Schedule(Time(i), 2, Payload{})
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(e.Now()+Time(sum%7), 2, Payload{Item: 1})
		e.Step()
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("typed Schedule+Step allocates %v objects per run, want 0", allocs)
	}
}

// BenchmarkEngine is the layer's own number: one event scheduled and run
// per iteration over a queue 256 deep (sim-plain keeps a few hundred
// copies in flight), as a closure and as a typed event.
func BenchmarkEngine(b *testing.B) {
	const depth = 256
	b.Run("closure", func(b *testing.B) {
		e := New()
		var again func(now Time)
		again = func(now Time) { e.At(now+depth, again) }
		for i := 0; i < depth; i++ {
			e.At(Time(i), again)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step()
		}
	})
	b.Run("typed", func(b *testing.B) {
		e := New()
		e.Handle(func(now Time, kind Kind, p Payload) { e.Schedule(now+depth, kind, p) })
		for i := 0; i < depth; i++ {
			e.Schedule(Time(i), 1, Payload{})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step()
		}
	})
}
