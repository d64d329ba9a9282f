package netio

import (
	"bytes"
	"net"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"d3t/internal/obs"
	"d3t/internal/wal"
	"d3t/internal/wire"
)

// encodeFrames concatenates the encodings of frames, as a parent's
// writer sends a backlog.
func encodeFrames(t *testing.T, frames ...wire.Frame) []byte {
	t.Helper()
	var b []byte
	var err error
	for i := range frames {
		if b, err = wire.AppendFrame(b, &frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// decodeAll decodes a recorded stream into frames that own their
// batches.
func decodeAll(t *testing.T, b []byte) []wire.Frame {
	t.Helper()
	dec := wire.NewDecoder(bytes.NewReader(b))
	var out []wire.Frame
	for {
		var f wire.Frame
		if err := dec.Decode(&f); err != nil {
			return out
		}
		f.Ups = slices.Clone(f.Ups)
		out = append(out, f)
	}
}

// updateFrame is an untraced update frame.
func updateFrame(item string, v float64) wire.Frame {
	return wire.Frame{Kind: wire.KindUpdate, Item: item, Value: v}
}

// TestDrainCorruptFrameFailsOver: good frames followed by a corrupt one
// in a single write. The good frames are applied and reach the child;
// the corrupt one tears the parent connection down, and the relay fails
// over to its backup with a resync hello, as any decode error does.
func TestDrainCorruptFrameFailsOver(t *testing.T) {
	backup, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer backup.Close()
	relay, parent, kids := startRelay(t, nil, backup.Addr().String())

	in := encodeFrames(t, updateFrame("A0", 200), updateFrame("A1", 300))
	in = append(in, 0, 0, 0, 0, wire.Version+1, byte(wire.KindUpdate), 0, 0) // a header of an unknown version
	if _, err := parent.Write(in); err != nil {
		t.Fatal(err)
	}

	conn, err := backup.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var f wire.Frame
	if err := wire.NewDecoder(conn).Decode(&f); err != nil || f.Kind != wire.KindHello || f.From != 1 || !f.Resync {
		t.Fatalf("backup got %+v (err %v), want a resync hello from relay 1", f, err)
	}
	if !waitFor(t, 5*time.Second, func() bool { return relay.Failovers() == 1 }) {
		t.Errorf("%d failovers, want 1", relay.Failovers())
	}
	parent.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := parent.Read(make([]byte, 1)); err == nil {
		t.Error("the relay kept the corrupt parent connection open")
	}

	// Child 2 watches both items at tolerance 1, so both copies travel.
	kids[0].SetReadDeadline(time.Now().Add(5 * time.Second))
	dec := wire.NewDecoder(kids[0])
	for _, want := range []wire.Frame{updateFrame("A0", 200), updateFrame("A1", 300)} {
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("child 2: %v", err)
		}
		if f.Kind != want.Kind || f.Item != want.Item || f.Value != want.Value {
			t.Fatalf("child 2 got %v %s=%v, want %s=%v", f.Kind, f.Item, f.Value, want.Item, want.Value)
		}
	}
	if v, _ := relay.Value("A1"); v != 300 {
		t.Errorf("relay holds A1=%v, want 300", v)
	}
}

// TestDrainKeepsTrace: a traced update in the middle of a drain reaches
// the children with its trace id and the hop stamps, the relay's own
// appended; the frames around it carry no trace.
func TestDrainKeepsTrace(t *testing.T) {
	_, parent, kids := startRelay(t, nil)
	traced := updateFrame("A3", 400)
	traced.TraceID, traced.Hops = 7, []obs.Hop{{Node: 0, At: 1000}}
	in := encodeFrames(t,
		updateFrame("A0", 200),
		wire.Frame{Kind: wire.KindBatch, Ups: []wire.Update{{Item: "A1", Value: 300}, {Item: "A2", Value: 300}}},
		traced,
		updateFrame("A2", 500),
		updateFrame("A0", sentinel))
	if _, err := parent.Write(in); err != nil {
		t.Fatal(err)
	}
	got := recordKids(t, kids, 1)
	var seen int
	for _, f := range decodeAll(t, got) {
		if f.Kind != wire.KindUpdate || f.Item != "A3" {
			if f.TraceID != 0 {
				t.Errorf("%v frame %s=%v carries trace %d", f.Kind, f.Item, f.Value, f.TraceID)
			}
			continue
		}
		seen++
		if f.TraceID != 7 || len(f.Hops) != 2 || f.Hops[0] != traced.Hops[0] || f.Hops[1].Node != 1 {
			t.Errorf("traced copy arrived with id %d, hops %v; want id 7, hops [{0 1000} {1 …}]", f.TraceID, f.Hops)
		}
	}
	if seen != 2 {
		t.Errorf("%d copies of the traced update, want one per child", seen)
	}
}

// TestDrainCloseReturns: Close returns while a drain is stuck on a full
// child queue — the children read nothing while the parent keeps
// sending — and every goroutine the relay started is gone afterwards.
func TestDrainCloseReturns(t *testing.T) {
	base := runtime.NumGoroutine()
	relay, parent, _ := startRelay(t, nil)
	in := pushInput(t)
	// The stuck drain holds relay.mu, so fetch child 2's writer first.
	relay.mu.Lock()
	p := relay.children[2]
	relay.mu.Unlock()
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for {
			if _, err := parent.Write(in); err != nil {
				return
			}
		}
	}()
	full := func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.pending) >= maxPending
	}
	if !waitFor(t, 20*time.Second, full) {
		t.Fatal("child 2's queue never filled")
	}
	closed := make(chan struct{})
	go func() {
		relay.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a drain blocked by a full child queue")
	}
	parent.Close()
	<-sent
	if !waitFor(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= base }) {
		t.Errorf("%d goroutines after Close, want the baseline %d", runtime.NumGoroutine(), base)
	}
}

// TestRelayDrainCommitsOnce: a durable relay fed the push-stream golden
// in one write logs fewer records than the input has frames — a drain is
// one group commit — and a restart over its directory recovers its
// values and decisions bit for bit.
func TestRelayDrainCommitsOnce(t *testing.T) {
	d := &wal.Options{Dir: t.TempDir(), SnapshotEvery: 1 << 30, Fsync: wal.PolicyNever}
	relay, parent, kids := startRelay(t, d)
	in := pushInput(t)
	if _, err := parent.Write(in); err != nil {
		t.Fatal(err)
	}
	recordKids(t, kids, 2) // the relay has applied the whole input
	values := make(map[string]float64)
	for _, x := range pushItems {
		values[x], _ = relay.Value(x)
	}
	decisions := relay.Decisions()
	relay.Close()
	if err := relay.DurabilityErr(); err != nil {
		t.Fatal(err)
	}

	log, rec, err := wal.Open(filepath.Join(d.Dir, "repo001"), *d)
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	frames := len(decodeAll(t, in))
	t.Logf("%d log records for %d received frames", len(rec.Batches), frames)
	if len(rec.Batches) >= frames {
		t.Errorf("%d log records for %d received frames, want fewer: one commit per drain", len(rec.Batches), frames)
	}

	restarted, err := Start(relayConfig(parent.LocalAddr().String(), d))
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	for _, x := range pushItems {
		if v, ok := restarted.Value(x); !ok || v != values[x] {
			t.Errorf("restart recovered %s=%v (ok=%v), want %v", x, v, ok, values[x])
		}
	}
	if got := restarted.Decisions(); !reflect.DeepEqual(got, decisions) {
		t.Errorf("restart recovered decisions %v, want %v", got, decisions)
	}
}
