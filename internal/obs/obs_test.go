package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"d3t/internal/repository"
)

func TestHistogramQuantileEmpty(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram p50 = %v, want 0", got)
	}
	s := h.Snapshot()
	if s.Count != 0 || s.P50Ms != 0 || s.P95Ms != 0 || s.P99Ms != 0 {
		t.Fatalf("empty snapshot = %+v, want zeros", s)
	}
}

func TestHistogramQuantileSingleBucket(t *testing.T) {
	var h Histogram
	// 100 samples, all in the bucket [64, 128): every quantile must
	// report that bucket's midpoint.
	for i := 0; i < 100; i++ {
		h.Observe(100)
	}
	want := float64(64+128) / 2
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != want {
			t.Fatalf("q=%v: got %v, want %v", q, got, want)
		}
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
}

func TestHistogramQuantileOverflowBucket(t *testing.T) {
	var h Histogram
	huge := int64(1) << 60 // way past the last finite bucket edge
	h.Observe(huge)
	// The overflow bucket reports its lower bound, not a midpoint.
	want := float64(uint64(1) << (HistBuckets - 2))
	if got := h.Quantile(0.5); got != want {
		t.Fatalf("overflow p50 = %v, want lower bound %v", got, want)
	}
}

func TestHistogramQuantileSpread(t *testing.T) {
	var h Histogram
	// 90 fast samples (~1ms), 10 slow (~1s): p50 must sit in the fast
	// bucket, p99 in the slow one.
	for i := 0; i < 90; i++ {
		h.Observe(1000)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1_000_000)
	}
	if p50 := h.Quantile(0.5); p50 > 2048 {
		t.Fatalf("p50 = %v µs, want within the ~1ms bucket", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 500_000 {
		t.Fatalf("p99 = %v µs, want within the ~1s bucket", p99)
	}
}

func TestHistogramNegativeClampsToZero(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	if got := h.Quantile(1); got != 0 {
		t.Fatalf("negative sample landed at %v, want bucket 0", got)
	}
}

func TestEWMA(t *testing.T) {
	var e EWMA
	if e.Value() != 0 {
		t.Fatalf("zero EWMA reads %v", e.Value())
	}
	e.Observe(100)
	if e.Value() != 100 {
		t.Fatalf("first sample must seed: got %v", e.Value())
	}
	e.Observe(200)
	want := 100 + Alpha*(200-100)
	if math.Abs(e.Value()-want) > 1e-9 {
		t.Fatalf("after second sample: got %v, want %v", e.Value(), want)
	}
	for i := 0; i < 200; i++ {
		e.Observe(500)
	}
	if math.Abs(e.Value()-500) > 1e-6 {
		t.Fatalf("EWMA did not converge: %v", e.Value())
	}
}

func TestNilSafety(t *testing.T) {
	// Every record-path method must be a no-op on nil receivers — this
	// is the "disabled observability" contract every backend relies on.
	var tr *Tree
	o := tr.Node(3)
	if o != nil {
		t.Fatalf("nil tree handed out a non-nil node")
	}
	o.Apply1()
	o.DepPass(1, 2, 3)
	o.SessPass(1, 2)
	o.Admit1()
	o.Redirect1()
	o.Migrate1()
	o.Resync(5)
	o.Batch(7)
	o.ObserveHop(10)
	o.ObserveSourceLatency(10)
	o.ObserveRedirectLatency(10)
	o.ObserveViolation(10)
	o.ObserveEdgeDelay(1, 10)
	if o.EdgeDelay(1) != 0 || o.ID() != repository.NoID {
		t.Fatalf("nil node leaked state")
	}
	if s := o.Snapshot(0); s.Counters.Received != 0 {
		t.Fatalf("nil node snapshot: %+v", s)
	}
	if s := tr.Snapshot(0); len(s.Nodes) != 0 {
		t.Fatalf("nil tree snapshot: %+v", s)
	}
	tr.Merged()
	if tr.TracerOrNil() != nil {
		t.Fatalf("nil tree has a tracer")
	}

	var tc *Tracer
	if id := tc.Sample("x", 0, 1); id != 0 {
		t.Fatalf("nil tracer sampled id %d", id)
	}
	tc.Hop(1, 2, 3)
	tc.Record(Trace{})
	if tc.Traces() != nil {
		t.Fatalf("nil tracer returned traces")
	}

	var h *Histogram
	h.Observe(1)
	h.Merge(nil)
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("nil histogram leaked state")
	}

	var e *EWMA
	e.Observe(1)
	if e.Value() != 0 || e.Count() != 0 {
		t.Fatalf("nil EWMA leaked state")
	}

	var l *Logger
	l.Infof("dropped %d", 1)
	l.Debugf("dropped")
	if l.Enabled(LevelInfo) {
		t.Fatalf("nil logger claims enabled")
	}

	var ms *MetricsServer
	if ms.Addr() != "" || ms.Close() != nil {
		t.Fatalf("nil metrics server misbehaved")
	}
}

// TestObsAllocFree pins the whole record path — counters, histograms,
// EWMAs, warm edge-delay slots, and the unsampled tracer check — at
// zero heap allocations per operation, node-core style.
func TestObsAllocFree(t *testing.T) {
	tree := NewTree()
	o := tree.Node(1)
	o.ObserveEdgeDelay(2, 100) // warm the edge slot
	tc := NewTracer(1 << 30)   // effectively never samples after the first
	tc.Sample("warm", 1, 0)

	allocs := testing.AllocsPerRun(1000, func() {
		o.Apply1()
		o.DepPass(3, 1, 4)
		o.SessPass(2, 1)
		o.Batch(8)
		o.ObserveHop(1500)
		o.ObserveSourceLatency(4500)
		o.ObserveEdgeDelay(2, 1200)
		if tc.Sample("item", 1, 42) != 0 {
			t.Fatal("unexpected sample")
		}
		tc.Hop(0, 1, 42)
	})
	if allocs != 0 {
		t.Fatalf("record path allocates %v allocs/op, want 0", allocs)
	}
}

func TestNodeSnapshotAndLoadFold(t *testing.T) {
	tree := NewTree()
	o := tree.Node(4)
	for i := 0; i < 100; i++ {
		o.Apply1()
	}
	o.DepPass(5, 3, 8)
	o.SessPass(2, 6)
	o.Admit1()
	o.Redirect1()
	o.Migrate1()
	o.Resync(4)
	o.Batch(16)
	o.ObserveEdgeDelay(2, 2000)

	// 100 updates over 2 simulated seconds = 50/s; the first fold seeds
	// the EWMA directly.
	s := o.Snapshot(2_000_000)
	c := s.Counters
	if c.Received != 100 || c.DepForwarded != 5 || c.DepSuppressed != 3 || c.DepChecks != 8 {
		t.Fatalf("dep counters: %+v", c)
	}
	if c.Delivered != 2 || c.Filtered != 6 || c.Admits != 1 || c.Redirects != 1 ||
		c.Migrations != 1 || c.Resyncs != 4 || c.Batches != 1 || c.BatchUpdates != 16 {
		t.Fatalf("session/batch counters: %+v", c)
	}
	if math.Abs(s.LoadEWMA-50) > 1e-9 {
		t.Fatalf("load EWMA = %v, want 50", s.LoadEWMA)
	}
	if math.Abs(s.EdgeDelayMs[2]-2.0) > 1e-9 {
		t.Fatalf("edge delay = %v ms, want 2", s.EdgeDelayMs[2])
	}

	// A second fold with no new updates blends toward zero.
	s2 := o.Snapshot(4_000_000)
	if want := 50 * (1 - Alpha); math.Abs(s2.LoadEWMA-want) > 1e-9 {
		t.Fatalf("second fold = %v, want %v", s2.LoadEWMA, want)
	}
}

func TestTreeSnapshotSortedAndMerged(t *testing.T) {
	tree := NewTree()
	tree.Node(3).ObserveHop(1000)
	tree.Node(1).ObserveHop(3000)
	tree.Node(2).ObserveSourceLatency(9000)
	s := tree.Snapshot(0)
	if len(s.Nodes) != 3 || s.Nodes[0].ID != 1 || s.Nodes[1].ID != 2 || s.Nodes[2].ID != 3 {
		t.Fatalf("snapshot not sorted by id: %+v", s.Nodes)
	}
	hop, srcLat, _, _ := tree.Merged()
	if hop.Count != 2 || srcLat.Count != 1 {
		t.Fatalf("merged counts: hop=%d src=%d", hop.Count, srcLat.Count)
	}
}

func TestTracerSamplingAndHops(t *testing.T) {
	tc := NewTracer(2) // every 2nd update
	id1 := tc.Sample("a", repository.SourceID, 10)
	id2 := tc.Sample("b", repository.SourceID, 20)
	id3 := tc.Sample("c", repository.SourceID, 30)
	if id1 == 0 || id2 != 0 || id3 == 0 {
		t.Fatalf("sampling pattern: %d %d %d", id1, id2, id3)
	}
	tc.Hop(id1, 1, 15)
	tc.Hop(id1, 2, 22)
	tc.Hop(0, 9, 99)      // untraced update: ignored
	tc.Hop(999, 9, 99)    // unknown id: ignored
	tc.Record(Trace{ID: 77, Item: "z", Hops: []Hop{{Node: 5, At: 1}}})

	traces := tc.Traces()
	if len(traces) != 3 {
		t.Fatalf("got %d traces, want 3: %+v", len(traces), traces)
	}
	byID := map[uint64]Trace{}
	for _, tr := range traces {
		byID[tr.ID] = tr
	}
	tr1 := byID[id1]
	if tr1.Item != "a" || len(tr1.Hops) != 3 {
		t.Fatalf("trace 1: %+v", tr1)
	}
	for i := 1; i < len(tr1.Hops); i++ {
		if tr1.Hops[i].At < tr1.Hops[i-1].At {
			t.Fatalf("non-monotone hops: %+v", tr1.Hops)
		}
	}
	if byID[77].Item != "z" {
		t.Fatalf("recorded trace missing: %+v", traces)
	}

	// Returned hop slices must be copies.
	tr1.Hops[0].Node = 42
	if tc.Traces()[0].Hops[0].Node == 42 && tc.Traces()[0].ID == id1 {
		t.Fatalf("Traces leaked internal hop slice")
	}

	if NewTracer(0) != nil {
		t.Fatalf("every<1 must disable the tracer")
	}
}

func TestTracerBounds(t *testing.T) {
	tc := NewTracer(1)
	for i := 0; i < maxOpen+maxTraces+100; i++ {
		tc.Sample("x", 0, int64(i))
	}
	if got := len(tc.Traces()); got > maxTraces+maxOpen {
		t.Fatalf("tracer grew unbounded: %d traces", got)
	}
}

func TestLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	l.Infof("hello %s", "world")
	l.Debugf("hidden")
	out := buf.String()
	if !strings.Contains(out, "hello world") || strings.Contains(out, "hidden") {
		t.Fatalf("info-level output: %q", out)
	}
	if !l.Enabled(LevelInfo) || l.Enabled(LevelDebug) {
		t.Fatalf("level gating broken")
	}

	buf.Reset()
	d := NewLogger(&buf, LevelDebug)
	d.Debugf("shown")
	if !strings.Contains(buf.String(), "shown") {
		t.Fatalf("debug-level output: %q", buf.String())
	}

	if NewLogger(&buf, LevelQuiet) != nil || NewLogger(nil, LevelInfo) != nil {
		t.Fatalf("quiet/nil-writer logger must be nil")
	}
}

func TestCommandLevel(t *testing.T) {
	for _, c := range []struct {
		verbose, quiet bool
		want           Level
	}{
		{false, false, LevelInfo},
		{true, false, LevelDebug},
		{false, true, LevelQuiet},
		{true, true, LevelQuiet},
	} {
		if got := CommandLevel(c.verbose, c.quiet); got != c.want {
			t.Errorf("CommandLevel(%v, %v) = %v, want %v", c.verbose, c.quiet, got, c.want)
		}
	}
}

// lineSignal forwards each written line to a channel without blocking.
type lineSignal chan string

func (s lineSignal) Write(p []byte) (int, error) {
	select {
	case s <- string(p):
	default:
	}
	return len(p), nil
}

func TestLogEvery(t *testing.T) {
	lines := make(lineSignal, 1)
	tree := NewTree()
	tree.Node(repository.SourceID)
	stop := LogEvery(NewLogger(lines, LevelInfo), tree, time.Millisecond, time.Now())
	if line := <-lines; !strings.Contains(line, "nodes=1") {
		t.Errorf("summary line %q", line)
	}
	// stop hangs the test if the logging goroutine does not exit; with a
	// period <= 0 nothing starts and stop returns at once.
	stop()
	LogEvery(nil, nil, 0, time.Now())()
}

func TestServeMetrics(t *testing.T) {
	tree := NewTree()
	tree.Node(1).Apply1()
	tree.Node(1).ObserveHop(1500)
	srv, err := ServeMetrics("127.0.0.1:0", func() any { return tree.Snapshot(1_000_000) })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	var snap TreeSnapshot
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatalf("bad /metrics JSON: %v", err)
	}
	if len(snap.Nodes) != 1 || snap.Nodes[0].Counters.Received != 1 || snap.Nodes[0].Hop.Count != 1 {
		t.Fatalf("metrics snapshot: %+v", snap)
	}
	if !bytes.Contains(get("/debug/vars"), []byte("memstats")) {
		t.Fatalf("expvar page missing memstats")
	}
	if !bytes.Contains(get("/debug/pprof/"), []byte("goroutine")) {
		t.Fatalf("pprof index missing profiles")
	}
}
