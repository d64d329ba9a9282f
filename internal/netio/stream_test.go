package netio

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"d3t/internal/coherency"
	"d3t/internal/repository"
	"d3t/internal/wal"
	"d3t/internal/wire"
)

// -update rewrites the stream goldens under testdata from the current
// code. The streams are the netio transport's byte-level contract with a
// dependent: regenerate them only for a deliberate change of frames or
// framing.
var update = flag.Bool("update", false, "rewrite the stream goldens under testdata")

// sentinel is the last value published; each recorder stops at it.
const sentinel = 1e6

// recordPush reads frames off a raw child connection until the
// sentinels-th sentinel update arrives, returning every byte read. A
// frame decoder on a tee consumes exactly whole frames, so the recording
// ends on a frame boundary.
func recordPush(conn net.Conn, sentinels int) ([]byte, error) {
	var rec bytes.Buffer
	dec := wire.NewDecoder(io.TeeReader(conn, &rec))
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var f wire.Frame
	for {
		if err := dec.Decode(&f); err != nil {
			return rec.Bytes(), fmt.Errorf("after %d bytes: %w", rec.Len(), err)
		}
		if f.Kind == wire.KindUpdate && f.Value == sentinel {
			if sentinels--; sentinels == 0 {
				return rec.Bytes(), nil
			}
		}
	}
}

// TestPushStreamGolden pins every byte a source pushes to two raw
// children over a fixed publish sequence: 200 Publish calls and 20
// PublishBatch calls of seeded random walks, with child 2 joining midway
// through a resync hello, tracer off. The golden is child 1's stream
// followed by child 2's. Only syscall boundaries may move under it:
// frames, their framing and their order on each connection are the
// contract.
func TestPushStreamGolden(t *testing.T) {
	items := []string{"A0", "A1", "A2", "A3", "A4", "A5", "A6", "A7"}
	wide := make(map[string]coherency.Requirement)
	narrow := make(map[string]coherency.Requirement)
	initial := make(map[string]float64)
	for i, x := range items {
		wide[x] = 1
		if i < 4 {
			narrow[x] = 2.5
		}
		initial[x] = 100
	}
	src, err := Start(NodeConfig{
		ID:       repository.SourceID,
		Children: map[repository.ID]map[string]coherency.Requirement{1: wide, 2: narrow},
		Initial:  initial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	type recording struct {
		b   []byte
		err error
	}
	join := func(id repository.ID, resync bool) <-chan recording {
		conn := dialNode(t, src)
		if err := wire.NewEncoder(conn).Encode(&wire.Frame{Kind: wire.KindHello, From: id, Resync: resync}); err != nil {
			t.Fatal(err)
		}
		done := make(chan recording, 1)
		go func() {
			b, err := recordPush(conn, 1)
			done <- recording{b, err}
		}()
		return done
	}

	r := rand.New(rand.NewSource(1))
	vals := make(map[string]float64, len(items))
	for x, v := range initial {
		vals[x] = v
	}
	step := func() (string, float64) {
		x := items[r.Intn(len(items))]
		vals[x] += r.NormFloat64() * 1.5
		return x, vals[x]
	}
	publish := func(n int) {
		for i := 0; i < n; i++ {
			if err := src.Publish(step()); err != nil {
				t.Fatal(err)
			}
		}
	}
	batches := func(n int) {
		for i := 0; i < n; i++ {
			ups := make([]Update, 1+r.Intn(12))
			for j := range ups {
				ups[j].Item, ups[j].Value = step()
			}
			if err := src.PublishBatch(ups); err != nil {
				t.Fatal(err)
			}
		}
	}

	rec1 := join(1, false)
	if !waitFor(t, 5*time.Second, func() bool { return src.ConnectedChildren() == 1 }) {
		t.Fatal("child 1 never registered")
	}
	publish(100)
	batches(10)
	rec2 := join(2, true)
	if !waitFor(t, 5*time.Second, func() bool { return src.ConnectedChildren() == 2 }) {
		t.Fatal("child 2 never registered")
	}
	batches(10)
	publish(99)
	if err := src.Publish("A0", sentinel); err != nil { // both children watch A0
		t.Fatal(err)
	}

	var got []byte
	for i, rec := range []<-chan recording{rec1, rec2} {
		res := <-rec
		if res.err != nil {
			t.Fatalf("child %d: %v", i+1, res.err)
		}
		got = append(got, res.b...)
	}
	checkGolden(t, "push_stream.bin", got)
}

// checkGolden compares got with testdata/name byte for byte, rewriting
// the file first under -update. The stream must exercise both data frame
// kinds, or the pin is vacuous.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	kinds := map[wire.Kind]int{}
	dec := wire.NewDecoder(bytes.NewReader(got))
	var f wire.Frame
	for dec.Decode(&f) == nil {
		kinds[f.Kind]++
	}
	if kinds[wire.KindUpdate] == 0 || kinds[wire.KindBatch] == 0 {
		t.Fatalf("stream holds %v frames, want update and batch frames", kinds)
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		at := 0
		for at < len(got) && at < len(want) && got[at] == want[at] {
			at++
		}
		t.Fatalf("stream differs from %s at byte %d (got %d bytes, want %d)", path, at, len(got), len(want))
	}
}

// pushItems are the items of the push-stream golden, each starting at
// 100; relay 1 serves all of them.
var pushItems = []string{"A0", "A1", "A2", "A3", "A4", "A5", "A6", "A7"}

// startRelay starts relay 1 under a raw parent: a listener the test
// plays the parent on. The relay serves pushItems to raw child 2 (every
// item, tolerance 1) and raw child 3 (A0..A3, tolerance 2.5), and fails
// over to backups. It returns the relay, the parent's end of the relay's
// push connection (its hello already read) and the two children's
// connections, both registered.
func startRelay(t *testing.T, d *wal.Options, backups ...string) (*Node, net.Conn, []net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	cfg := relayConfig(ln.Addr().String(), d)
	cfg.Backups = backups
	relay, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { relay.Close() })
	parent, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { parent.Close() })
	var f wire.Frame
	if err := wire.NewDecoder(parent).Decode(&f); err != nil || f.Kind != wire.KindHello || f.From != 1 {
		t.Fatalf("relay hello: %v %+v", err, f)
	}
	var kids []net.Conn
	for _, id := range []repository.ID{2, 3} {
		conn := dialNode(t, relay)
		hello(t, conn, id)
		kids = append(kids, conn)
	}
	if !waitFor(t, 5*time.Second, func() bool { return relay.ConnectedChildren() == 2 }) {
		t.Fatal("children never registered")
	}
	return relay, parent, kids
}

// relayConfig is startRelay's relay, its parent at addr.
func relayConfig(addr string, d *wal.Options) NodeConfig {
	serving := make(map[string]coherency.Requirement)
	wide := make(map[string]coherency.Requirement)
	narrow := make(map[string]coherency.Requirement)
	initial := make(map[string]float64)
	for i, x := range pushItems {
		serving[x], wide[x], initial[x] = 0.5, 1, 100
		if i < 4 {
			narrow[x] = 2.5
		}
	}
	return NodeConfig{
		ID:         1,
		Serving:    serving,
		Children:   map[repository.ID]map[string]coherency.Requirement{2: wide, 3: narrow},
		Parents:    []string{addr},
		Initial:    initial,
		Durability: d,
	}
}

// recordKids records every child's stream up to its sentinels-th
// sentinel, concurrently, and returns the streams concatenated in child
// order.
func recordKids(t *testing.T, kids []net.Conn, sentinels int) []byte {
	t.Helper()
	type recording struct {
		b   []byte
		err error
	}
	recs := make([]chan recording, len(kids))
	for i, conn := range kids {
		recs[i] = make(chan recording, 1)
		go func() {
			b, err := recordPush(conn, sentinels)
			recs[i] <- recording{b, err}
		}()
	}
	var got []byte
	for i, rec := range recs {
		res := <-rec
		if res.err != nil {
			t.Fatalf("child %d: %v", i+2, res.err)
		}
		got = append(got, res.b...)
	}
	return got
}

// pushInput is the push-stream golden: two source streams back to back,
// each ending with a sentinel update of A0.
func pushInput(t *testing.T) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "push_stream.bin"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRelayStreamGolden pins every byte a relay pushes to two raw
// children when its parent sends the push-stream golden in one write:
// a relay's fan-out of a backlog, frame after received frame. The golden
// is child 2's stream followed by child 3's, each up to the input's
// second sentinel.
func TestRelayStreamGolden(t *testing.T) {
	_, parent, kids := startRelay(t, nil)
	if _, err := parent.Write(pushInput(t)); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "relay_stream.bin", recordKids(t, kids, 2))
}
