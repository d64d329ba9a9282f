package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"d3t"
	"d3t/internal/wire"
	"d3t/obs"
)

// Replay probes: a workload's own recorded traffic pushed through one
// layer's public functions in isolation. They give each layer a cost per
// update that the end-to-end latency can be set against; what the probes
// cannot explain is locks, syscalls and scheduling.

// probeReps is how often each probe repeats its replay; it reports the
// median repetition.
const probeReps = 3

// nopTransport accepts every copy and sends it nowhere.
type nopTransport struct{}

func (nopTransport) Now() d3t.Time                                                { return 0 }
func (nopTransport) SendToDependent(d3t.RepositoryID, string, float64, bool) bool { return true }
func (nopTransport) SendToClient(*d3t.NodeSession, string, float64, bool)         {}

// nodeProbe replays the source's sequence and one interior repository's
// received sequence through fresh NodeCores with a no-op transport, and
// returns the cost of one Apply. With observe set the cores carry an obs
// node, as they do in a cluster started with an obs tree.
func nodeProbe(w *world, source []update, rec *traffic, observe bool) (nsPerUpdate, allocsPerUpdate float64, err error) {
	var ns, allocs []float64
	total := float64(len(source) + len(rec.applied))
	if total == 0 {
		return 0, 0, nil
	}
	for rep := 0; rep < probeReps; rep++ {
		ov, err := w.overlay()
		if err != nil {
			return 0, 0, err
		}
		var tree *obs.Tree
		if observe {
			tree = obs.NewTree()
		}
		core := func(id d3t.RepositoryID) *d3t.NodeCore {
			c := d3t.NewNodeCore(ov.Node(id), ov.Node, d3t.NodeOptions{})
			for item, v := range w.initial {
				c.Seed(item, v)
			}
			c.SetObs(tree.Node(id))
			return c
		}
		src, mid := core(d3t.SourceID), core(rec.interior)
		before := readUsage().mallocs
		begin := time.Now()
		for _, u := range source {
			src.Apply(w.items[u.item], u.value, nopTransport{})
		}
		for _, u := range rec.applied {
			mid.Apply(w.items[u.item], u.value, nopTransport{})
		}
		ns = append(ns, float64(time.Since(begin))/total)
		allocs = append(allocs, float64(readUsage().mallocs-before)/total)
	}
	return median(ns), median(allocs), nil
}

// wireProbe replays the recorded frame mix through the codec: Encoder to
// io.Discard, Decoder from memory.
func wireProbe(frames []wire.Frame) (encodeNs, decodeNs, allocsPerFrame float64, err error) {
	if len(frames) == 0 {
		return 0, 0, 0, nil
	}
	var stream []byte
	for i := range frames {
		if stream, err = wire.AppendFrame(stream, &frames[i]); err != nil {
			return 0, 0, 0, fmt.Errorf("wire probe: %w", err)
		}
	}
	n := float64(len(frames))
	var enc, dec, allocs []float64
	for rep := 0; rep < probeReps; rep++ {
		e := wire.NewEncoder(io.Discard)
		before := readUsage().mallocs
		begin := time.Now()
		for i := range frames {
			if err := e.Encode(&frames[i]); err != nil {
				return 0, 0, 0, fmt.Errorf("wire probe: %w", err)
			}
		}
		enc = append(enc, float64(time.Since(begin))/n)
		d := wire.NewDecoder(bytes.NewReader(stream))
		var f wire.Frame
		begin = time.Now()
		for range frames {
			if err := d.Decode(&f); err != nil {
				return 0, 0, 0, fmt.Errorf("wire probe: %w", err)
			}
		}
		dec = append(dec, float64(time.Since(begin))/n)
		allocs = append(allocs, float64(readUsage().mallocs-before)/(2*n))
	}
	return median(enc), median(dec), median(allocs), nil
}

// walStats is what the WAL probe measures.
type walStats struct {
	appendNs, commitP50us, commitP99us float64
	bytesPerUpdate, commitsPerUpdate   float64
	snapshots                          float64
}

// constant returns a func that returns v. It lets the probe hand
// WALLog.Commit a snapshot callback without naming the snapshot type,
// which the facade does not re-export.
func constant[T any](v T) func() T { return func() T { return v } }

// walProbe replays the source's commit batches through a write-ahead log
// opened with the workload's own options in a scratch directory. The
// first pass times Append and Commit, snapshot rotations included (they
// land in the p99). The second pass never rotates, so that the log's
// final size is every byte the batches cost.
func walProbe(w *world, source []update, batch int, tmpDir string) (walStats, error) {
	var st walStats
	if len(source) == 0 {
		return st, nil
	}
	pass := func(opts d3t.WALOptions, timed bool) (size int64, err error) {
		dir, err := os.MkdirTemp(tmpDir, "d3tbench-walprobe-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		log, rec, err := d3t.OpenWAL(dir, opts)
		if err != nil {
			return 0, err
		}
		state := rec.State
		state.Values = w.initial // a rotation snapshots every item's value
		var appendNs int64
		var commits []int64
		for i := 0; i < len(source); i += batch {
			end := i + batch
			if end > len(source) {
				end = len(source)
			}
			begin := time.Now()
			for _, u := range source[i:end] {
				log.Append(w.items[u.item], u.value)
			}
			mid := time.Now()
			if err := log.Commit(constant(state)); err != nil {
				log.Close()
				return 0, err
			}
			appendNs += int64(mid.Sub(begin))
			commits = append(commits, int64(time.Since(mid)))
		}
		if timed {
			st.appendNs = float64(appendNs) / float64(len(source))
			st.commitsPerUpdate = float64(len(commits)) / float64(len(source))
			st.snapshots = float64(log.Snapshots())
			st.commitP50us, st.commitP99us = us(quantile(commits, 0.5)), us(quantile(commits, 0.99))
		}
		if err := log.Close(); err != nil {
			return 0, err
		}
		segments, err := filepath.Glob(filepath.Join(dir, "*.log"))
		if err != nil {
			return 0, err
		}
		for _, path := range segments {
			info, err := os.Stat(path)
			if err != nil {
				return 0, err
			}
			size += info.Size()
		}
		return size, nil
	}
	if _, err := pass(d3t.WALOptions{}, true); err != nil {
		return st, fmt.Errorf("wal probe: %w", err)
	}
	size, err := pass(d3t.WALOptions{SnapshotEvery: len(source) + 1}, false)
	if err != nil {
		return st, fmt.Errorf("wal probe: %w", err)
	}
	st.bytesPerUpdate = float64(size) / float64(len(source))
	return st, nil
}

// tracedPhases is the traced run. It repeats the open-loop phase twice on
// one cluster, first plain and then with spans recorded around every
// publish call and every receipt, so the cost of tracing is the
// difference; it has no capacity phase. The traced phase's traffic then
// feeds the layer probes.
func (t *transportRun) tracedPhases(sp startSpans) error {
	res, layer := t.res, t.wl.layer
	res.set(layer+".cluster_start_ms", ms(int64(sp.clusterStart)))
	res.set(layer+".subscribe_ms", ms(int64(sp.subscribe)))

	plain := t.p.measure * 40 / 100
	ups := make([]update, t.pacedChunkLen(plain))
	t.w.gen.fill(ups)
	c := t.begin(ups, true, false)
	lateness, start, err := t.paced(c)
	if err != nil || t.aborted {
		return err
	}
	ref := t.latencyStats(c, start, plain, lateness)

	traced := t.p.measure - plain
	ups = make([]update, t.pacedChunkLen(traced))
	t.w.gen.fill(ups)
	rec := t.o.record()
	c = t.begin(ups, true, true)
	t.o.rec = nil
	before := readUsage()
	lateness, start, err = t.paced(c)
	if err != nil || t.aborted {
		return err
	}
	used := readUsage().sub(before)
	ls := t.latencyStats(c, start, traced, lateness)
	t.spans = t.transportSpans(c)

	res.set(layer+".hop_d1_ms", ls.hop[1])
	res.set(layer+".hop_d2_ms", ls.hop[2]-ls.hop[1])
	res.set(layer+".hop_d3_ms", ls.hop[3]-ls.hop[2])
	var calls []int64
	for i := 0; i < len(c.ups); i += t.wl.batch {
		calls = append(calls, c.callEnd[i]-c.callStart[i])
	}
	res.set(layer+".publish_call_us_p50", us(quantile(calls, 0.5)))
	res.set(layer+".publish_call_us_p99", us(quantile(calls, 0.99)))
	if ref.p50 > 0 {
		res.set("bench.trace_overhead_ratio", ls.p50/ref.p50-1)
	}
	res.set("bench.spans", float64(len(t.spans.spans)))
	res.set("bench.latency_p99_ms", ls.p99)
	res.set("bench.client_loss_pct", ls.lossPct)
	res.set("bench.latency_samples", float64(ls.samplesPerWindow))
	res.set("bench.gen_lateness_p50_ms", ls.latenessP50)
	res.set("bench.gen_lateness_p99_ms", ls.latenessP99)
	res.set("bench.stalled_windows", float64(ls.stalled))
	n := float64(len(c.ups))
	res.set("bench.cpu_us_per_update", us(int64(used.cpu))/n)
	res.set("bench.gc_cycles", float64(used.gcCycles))
	res.set("bench.gc_pause_ms", ms(int64(used.gcPause)))
	res.set("bench.max_rss_mb", used.maxRSSMB)
	res.note("traced latency p50 %.4f ms p99 %.4f ms; untraced p50 %.4f ms p99 %.4f ms", ls.p50, ls.p99, ref.p50, ref.p99)

	// Exact counts, from the oracle over both phases.
	o, published := t.o, float64(t.o.updates)
	res.set("node.checks_per_update", float64(o.checks)/published)
	res.set("node.forwards_per_update", float64(o.forwards)/published)
	res.set("node.forward_ratio", float64(o.forwards)/float64(o.checks))
	res.set("node.client_deliveries_per_update", float64(o.clientDeliveries)/published)

	// Layer probes on the traced phase's traffic.
	applyNs, applyAllocs, err := nodeProbe(t.w, ups, rec, false)
	if err != nil {
		return err
	}
	res.set("node.apply_ns_per_update", applyNs)
	res.set("node.apply_allocs_per_update", applyAllocs)
	perHop := applyNs
	var updatesPerFrame float64
	if layer == "netio" {
		res.set("wire.bytes_per_update", float64(o.frameBytes)/published)
		res.set("wire.frames_per_update", float64(o.frames)/published)
		updatesPerFrame = float64(o.frameUpdates) / float64(o.frames)
		res.set("wire.updates_per_frame", updatesPerFrame)
		encNs, decNs, allocs, err := wireProbe(rec.frames)
		if err != nil {
			return err
		}
		res.set("wire.encode_ns_per_frame", encNs)
		res.set("wire.decode_ns_per_frame", decNs)
		res.set("wire.allocs_per_frame", allocs)
		perHop = decNs + encNs + applyNs*updatesPerFrame
	}
	if t.wl.durable {
		st, err := walProbe(t.w, ups, t.wl.batch, t.p.tmpDir)
		if err != nil {
			return err
		}
		res.set("wal.append_ns_per_update", st.appendNs)
		res.set("wal.commit_us_p50", st.commitP50us)
		res.set("wal.commit_us_p99", st.commitP99us)
		res.set("wal.bytes_per_update", st.bytesPerUpdate)
		res.set("wal.commits_per_update", st.commitsPerUpdate)
		res.set("wal.snapshots", st.snapshots)
		perHop += st.appendNs*updatesPerFrame + st.commitP50us*1e3

		withObs, _, err := nodeProbe(t.w, ups, rec, true)
		if err != nil {
			return err
		}
		res.set("obs.apply_overhead_ns", withObs-applyNs)
		t.obsCheck()
	}
	// The budget: what three blocking hops cost according to the probes,
	// against the latency the clients saw.
	explained := worldDepth * perHop / 1e3
	res.set("bench.path_explained_us", explained)
	if ls.p50 > 0 {
		res.set("bench.path_unexplained_ratio", 1-explained/(ls.p50*1e3))
	}
	return nil
}

// obsCheck times a snapshot of the durable cluster's obs tree and holds
// its counters against the oracle's exact counts: observation must count
// what happened, and nothing else.
func (t *transportRun) obsCheck() {
	tree := t.sys.(*netioSystem).tree
	begin := time.Now()
	snap := tree.Snapshot(t.now() / 1e3)
	t.res.set("obs.snapshot_ms", ms(int64(time.Since(begin))))
	var got [4]uint64
	for _, n := range snap.Nodes {
		got[0] += n.Counters.Received
		got[1] += n.Counters.DepChecks
		got[2] += n.Counters.DepForwarded
		got[3] += n.Counters.Delivered
	}
	want := [4]uint64{t.o.applies, t.o.checks, t.o.forwards, t.o.clientDeliveries}
	mismatch := 0
	for i := range want {
		if got[i] != want[i] {
			mismatch++
		}
	}
	if mismatch > 0 {
		t.res.failed += mismatch
		t.res.note("obs counters (received, checks, forwarded, delivered) %v, oracle %v", got, want)
	}
	t.res.set("obs.counter_mismatch", float64(mismatch))
}
