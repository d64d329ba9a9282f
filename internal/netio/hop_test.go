package netio

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"d3t/internal/coherency"
	"d3t/internal/repository"
	"d3t/internal/wal"
	"d3t/internal/wire"
)

// tcpChain runs closed-loop rounds over loopback TCP: source -> relay 1
// for item X (tolerance 10), with one client session on the relay that
// wants X within 60.
type tcpChain struct {
	src     *Node
	c       *Client
	v       float64
	timeout *time.Timer
}

func startTCPChain(tb testing.TB) *tcpChain {
	tb.Helper()
	tol := map[string]coherency.Requirement{"X": 10}
	src, err := Start(NodeConfig{
		ID:       repository.SourceID,
		Children: map[repository.ID]map[string]coherency.Requirement{1: tol},
		Initial:  map[string]float64{"X": 0},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { src.Close() })
	relay, err := Start(NodeConfig{ID: 1, Serving: tol, Parents: []string{src.Addr()}, Initial: map[string]float64{"X": 0}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { relay.Close() })
	if !waitFor(tb, 5*time.Second, func() bool { return src.ConnectedChildren() == 1 }) {
		tb.Fatal("relay never connected")
	}
	c, err := Subscribe("leaf", map[string]coherency.Requirement{"X": 60}, relay.Addr())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	d := &tcpChain{src: src, c: c, timeout: time.NewTimer(time.Hour)}
	tb.Cleanup(func() { d.timeout.Stop() })
	d.await(tb, 0) // the admission resync
	return d
}

// round publishes the next value of X — 100 above the last, so the relay
// and the session both forward it — and waits until the session has it.
func (d *tcpChain) round(tb testing.TB) {
	d.v += 100
	if err := d.src.Publish("X", d.v); err != nil {
		tb.Fatal(err)
	}
	d.await(tb, d.v)
}

func (d *tcpChain) await(tb testing.TB, v float64) {
	d.timeout.Reset(5 * time.Second)
	for {
		select {
		case u := <-d.c.Updates():
			if u.Value == v {
				return
			}
		case <-d.timeout.C:
			tb.Fatalf("value %v never reached the session", v)
		}
	}
}

// TestTCPPublishAllocBudget is the tripwire for the TCP hop's
// allocation-free path: a publish through a relay to a client session
// allocates nothing in steady state — frames append into reused peer
// buffers, flush regroups in reused scratch, decoders read through
// buffered readers into reused bodies.
func TestTCPPublishAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	d := startTCPChain(t)
	for i := 0; i < 500; i++ {
		d.round(t) // warm-up: buffers and scratch grow once
	}
	const rounds = 5000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		d.round(t)
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / rounds; per > 0.1 {
		t.Errorf("%.3f allocations per publish through source -> relay -> session, want <= 0.1", per)
	}
}

// BenchmarkTCPPublish times one publish from the call to its receipt at
// a client session one relay down, over loopback TCP.
func BenchmarkTCPPublish(b *testing.B) {
	d := startTCPChain(b)
	b.ReportAllocs()
	for b.Loop() {
		d.round(b)
	}
}

// BenchmarkTCPRelayDurable times one 16-update batch publish through a
// relay that logs to a write-ahead log (default policy) on to a client
// session, over loopback TCP. Eight batches are in flight at a time, so
// the relay's reader holds backlogs and applies them as drains.
func BenchmarkTCPRelayDurable(b *testing.B) {
	const width, window = 16, 8
	items := make([]string, width)
	tol := make(map[string]coherency.Requirement)
	wants := make(map[string]coherency.Requirement)
	initial := make(map[string]float64)
	for i := range items {
		items[i] = fmt.Sprintf("X%02d", i)
		tol[items[i]], wants[items[i]], initial[items[i]] = 10, 60, 0
	}
	src, err := Start(NodeConfig{
		ID:       repository.SourceID,
		Children: map[repository.ID]map[string]coherency.Requirement{1: tol},
		Initial:  initial,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	relay, err := Start(NodeConfig{ID: 1, Serving: tol, Parents: []string{src.Addr()}, Initial: initial,
		Durability: &wal.Options{Dir: b.TempDir()}})
	if err != nil {
		b.Fatal(err)
	}
	defer relay.Close()
	if !waitFor(b, 5*time.Second, func() bool { return src.ConnectedChildren() == 1 }) {
		b.Fatal("relay never connected")
	}
	c, err := Subscribe("leaf", wants, relay.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	timeout := time.NewTimer(time.Hour)
	defer timeout.Stop()
	// await reads the session's updates until the last item holds v.
	await := func(v float64) {
		timeout.Reset(5 * time.Second)
		for {
			select {
			case u := <-c.Updates():
				if u.Item == items[width-1] && u.Value == v {
					return
				}
			case <-timeout.C:
				b.Fatalf("%s=%v never reached the session", items[width-1], v)
			}
		}
	}
	await(0) // the admission resync

	ups := make([]Update, width)
	v, inFlight := 0.0, 0
	b.ReportAllocs()
	for b.Loop() {
		v += 100
		for j := range ups {
			ups[j] = Update{Item: items[j], Value: v}
		}
		if err := src.PublishBatch(ups); err != nil {
			b.Fatal(err)
		}
		if inFlight++; inFlight == window {
			await(v)
			inFlight = 0
		}
	}
	if inFlight > 0 {
		await(v)
	}
	if err := relay.DurabilityErr(); err != nil {
		b.Fatal(err)
	}
}

// bigItem makes every update frame about 4 KiB, so a few hundred
// publishes fill a socket and a writer's queue.
var bigItem = strings.Repeat("x", 4<<10)

// stalledPublishes is how many publishes the writer tests push at a child
// that does not read: 8 MiB, well past the queue bound and both socket
// buffers.
const stalledPublishes = 2000

// stalledChild starts a source serving bigItem to a raw child 1, shrinks
// the source's send buffer for it, and returns the child's connection and
// the source's writer for it. (Shrinking the child's receive buffer too
// made the resumed stream crawl on loopback, for seconds.)
func stalledChild(t *testing.T) (*Node, *net.TCPConn, *peer) {
	t.Helper()
	src, err := Start(NodeConfig{
		ID:       repository.SourceID,
		Children: map[repository.ID]map[string]coherency.Requirement{1: {bigItem: 0.5}},
		Initial:  map[string]float64{bigItem: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	conn := dialNode(t, src).(*net.TCPConn)
	hello(t, conn, 1)
	if !waitFor(t, 5*time.Second, func() bool { return src.ConnectedChildren() == 1 }) {
		t.Fatal("child never registered")
	}
	src.mu.Lock()
	p := src.children[1]
	src.mu.Unlock()
	p.conn.(*net.TCPConn).SetWriteBuffer(64 << 10)
	return src, conn, p
}

// publishAll publishes bigItem = 1, 2, ..., stalledPublishes from its own
// goroutine, counting completed calls, and reports the first error (or
// nil once all returned).
func publishAll(src *Node, done *atomic.Int64) <-chan error {
	errc := make(chan error, 1)
	go func() {
		for i := 1; i <= stalledPublishes; i++ {
			if err := src.Publish(bigItem, float64(i)); err != nil {
				errc <- err
				return
			}
			done.Add(1)
		}
		errc <- nil
	}()
	return errc
}

// awaitBlocked waits until the publisher has stopped making progress with
// the writer's queue at its bound, and fails if it finished instead.
func awaitBlocked(t *testing.T, p *peer, done *atomic.Int64, errc <-chan error) {
	t.Helper()
	full := func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.pending) >= maxPending
	}
	at := int64(-1)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		select {
		case err := <-errc:
			t.Fatalf("publisher finished (err %v) against a child that does not read", err)
		case <-time.After(100 * time.Millisecond):
		}
		now := done.Load()
		if now == at && full() {
			return
		}
		at = now
	}
	t.Fatalf("publisher never blocked: %d calls done, queue full %v", done.Load(), full())
}

// TestPublishBlocksOnStalledChild: a child that stops reading makes
// Publish wait at the queue bound instead of dropping, and once the child
// reads again every frame arrives, in order. The queue can only reach its
// bound because publishes keep appending while the writer is stuck on the
// full socket: no frame is written under the node's lock.
func TestPublishBlocksOnStalledChild(t *testing.T) {
	src, conn, p := stalledChild(t)
	var done atomic.Int64
	errc := publishAll(src, &done)
	awaitBlocked(t, p, &done, errc)

	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	dec := wire.NewDecoder(bufio.NewReader(conn))
	var f wire.Frame
	for want := 1; want <= stalledPublishes; want++ {
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("frame %d: %v", want, err)
		}
		if f.Kind != wire.KindUpdate || f.Item != bigItem || f.Value != float64(want) {
			t.Fatalf("frame %d: %v with value %v, want update %d", want, f.Kind, f.Value, want)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestCloseUnblocksStalledWriter: Close returns promptly while a writer
// is stuck on a full socket and a Publish waits on its queue, and every
// goroutine the node started is gone afterwards.
func TestCloseUnblocksStalledWriter(t *testing.T) {
	base := runtime.NumGoroutine()
	src, conn, p := stalledChild(t)
	var done atomic.Int64
	errc := publishAll(src, &done)
	awaitBlocked(t, p, &done, errc)

	closed := make(chan struct{})
	go func() {
		src.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a writer blocked by a full socket")
	}
	<-errc
	conn.Close()
	if !waitFor(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= base }) {
		t.Errorf("%d goroutines after Close, want the baseline %d", runtime.NumGoroutine(), base)
	}
}

// TestWriteErrorUnregistersChild: a child that dies with frames unread
// resets the connection. The writer latches the error and closes the
// connection; the Publish waiting on the full queue returns that error,
// and the reader then unregisters the child.
func TestWriteErrorUnregistersChild(t *testing.T) {
	src, conn, p := stalledChild(t)
	var done atomic.Int64
	errc := publishAll(src, &done)
	awaitBlocked(t, p, &done, errc)

	conn.SetLinger(0) // close with a reset
	conn.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("every Publish succeeded after the child reset its connection")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Publish stayed blocked after the child reset its connection")
	}
	if !waitFor(t, 5*time.Second, func() bool { return src.ConnectedChildren() == 0 }) {
		t.Fatal("the dead child is still registered")
	}
	if err := src.Publish(bigItem, 1e9); err != nil {
		t.Fatalf("Publish with no child registered: %v", err)
	}
}
