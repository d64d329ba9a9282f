package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// metricSpec declares one metric. BENCHMARK.json at the root of the
// repository is generated from these tables (-spec prints it) and a test
// holds the two together.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system sees; every workload
// reports every one (see README.md for what each means on the simulator
// workloads). Bound is the share of the parent's median by which a
// metric may worsen before a change counts as a regression.
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"latency_p50_ms", "ms", lower, 0.25},
	{"capacity_updates_per_s", "1/s", higher, 0.25},
	{"alloc_bytes_per_update", "B", lower, 0.10},
}

// perLayer are the single-layer metrics of a traced run, without bounds.
// A layer a workload does not drive reads 0 there, which is itself the
// prediction: that workload must not move when the layer changes.
var perLayer = []metricSpec{
	{"node.apply_ns_per_update", "ns", lower, 0},
	{"node.apply_allocs_per_update", "count", lower, 0},
	{"node.checks_per_update", "count", lower, 0},
	{"node.forwards_per_update", "count", lower, 0},
	{"node.forward_ratio", "ratio", lower, 0},
	{"node.client_deliveries_per_update", "count", lower, 0},
	{"wire.encode_ns_per_frame", "ns", lower, 0},
	{"wire.decode_ns_per_frame", "ns", lower, 0},
	{"wire.allocs_per_frame", "count", lower, 0},
	{"wire.bytes_per_update", "B", lower, 0},
	{"wire.frames_per_update", "count", lower, 0},
	{"wire.updates_per_frame", "count", higher, 0},
	{"wal.append_ns_per_update", "ns", lower, 0},
	{"wal.commit_us_p50", "us", lower, 0},
	{"wal.commit_us_p99", "us", lower, 0},
	{"wal.bytes_per_update", "B", lower, 0},
	{"wal.commits_per_update", "count", lower, 0},
	{"wal.snapshots", "count", lower, 0},
	{"wal.recover_ms", "ms", lower, 0},
	{"wal.replayed_records", "count", lower, 0},
	{"netio.publish_call_us_p50", "us", lower, 0},
	{"netio.publish_call_us_p99", "us", lower, 0},
	{"netio.hop_d1_ms", "ms", lower, 0},
	{"netio.hop_d2_ms", "ms", lower, 0},
	{"netio.hop_d3_ms", "ms", lower, 0},
	{"netio.cluster_start_ms", "ms", lower, 0},
	{"netio.subscribe_ms", "ms", lower, 0},
	{"netio.conns", "count", lower, 0},
	{"netio.client_dropped", "count", lower, 0},
	{"live.publish_call_us_p50", "us", lower, 0},
	{"live.publish_call_us_p99", "us", lower, 0},
	{"live.hop_d1_ms", "ms", lower, 0},
	{"live.hop_d2_ms", "ms", lower, 0},
	{"live.hop_d3_ms", "ms", lower, 0},
	{"live.cluster_start_ms", "ms", lower, 0},
	{"live.subscribe_ms", "ms", lower, 0},
	{"live.session_dropped", "count", lower, 0},
	{"obs.apply_overhead_ns", "ns", lower, 0},
	{"obs.snapshot_ms", "ms", lower, 0},
	{"obs.counter_mismatch", "count", lower, 0},
	{"netsim.generate_s", "s", lower, 0},
	{"trace.generate_s", "s", lower, 0},
	{"tree.build_s", "s", lower, 0},
	{"dissemination.run_s", "s", lower, 0},
	{"core.overhead_s", "s", lower, 0},
	{"dissemination.events", "count", lower, 0},
	{"dissemination.messages", "count", lower, 0},
	{"dissemination.ns_per_event", "ns", lower, 0},
	{"dissemination.allocs_per_event", "count", lower, 0},
	{"vserve.populate_s", "s", lower, 0},
	{"vserve.deliver_ns_per_watch", "ns", lower, 0},
	{"vserve.bytes_per_session", "B", lower, 0},
	{"vserve.delivered", "count", higher, 0},
	{"vserve.filtered", "count", higher, 0},
	{"vserve.migrations", "count", lower, 0},
	{"resilience.heartbeats", "count", lower, 0},
	{"resilience.rehomed", "count", lower, 0},
	{"resilience.events", "count", lower, 0},
	{"sim.loss_pct", "%", lower, 0},
	{"sim.run_s", "s", lower, 0},
	{"sim.alloc_mb", "MB", lower, 0},
	{"bench.latency_p99_ms", "ms", lower, 0},
	{"bench.client_loss_pct", "%", lower, 0},
	{"bench.latency_samples", "count", higher, 0},
	{"bench.gen_lateness_p50_ms", "ms", lower, 0},
	{"bench.gen_lateness_p99_ms", "ms", lower, 0},
	{"bench.stalled_windows", "count", lower, 0},
	{"bench.cpu_us_per_update", "us", lower, 0},
	{"bench.gc_cycles", "count", lower, 0},
	{"bench.gc_pause_ms", "ms", lower, 0},
	{"bench.max_rss_mb", "MB", lower, 0},
	{"bench.path_explained_us", "us", higher, 0},
	{"bench.path_unexplained_ratio", "ratio", lower, 0},
	{"bench.trace_overhead_ratio", "ratio", lower, 0},
	{"bench.spans", "count", lower, 0},
}

// workloadSpec names one workload and why it is in the set.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{"live-fanout", "channel transport, single publishes, WAL and obs off: node and live do all the work, wire and wal none, so a codec or WAL change must not move it"},
	{"netio-fanout", "same world over loopback TCP, one update frame and one socket write per child per update: wire and netio dominate; a conflating or vectoring writer must show here"},
	{"netio-durable", "16-update batches over TCP with WAL (batch fsync) and obs on: batch frames and group commit, so a gain for single updates that costs batches shows; wal works only here"},
	{"sim-plain", "RunExperiment at paper scale, plain runner: the sim engine, trackers and node cores with no serving and no faults"},
	{"sim-fleet", "resilient runner with churn and a 200000-session virtual fleet: vserve delivery dominates and the engine does little, the inverse of sim-plain"},
}

// runSeconds is how long one run measures, as BENCHMARK.json states it.
const runSeconds = 20

// result is what one run of one workload reports.
type result struct {
	workload  string
	attempted int
	failed    int
	values    map[string]float64
	// notes are validity remarks printed with the metrics.
	notes []string
}

func newResult(workload string) *result {
	return &result{workload: workload, values: make(map[string]float64)}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// print writes every metric of the given table by name, with its unit,
// then the operation counts and notes.
func (r *result) print(w io.Writer, table []metricSpec) {
	for _, m := range table {
		if v, ok := r.values[m.Name]; ok {
			fmt.Fprintf(w, "%-14s %-36s %16.6g %s\n", r.workload, m.Name, v, m.Unit)
		}
	}
	fmt.Fprintf(w, "%-14s operations attempted %d failed %d\n", r.workload, r.attempted, r.failed)
	for _, n := range r.notes {
		fmt.Fprintf(w, "%-14s note: %s\n", r.workload, n)
	}
}

// jsonLine renders the driver's result object: every metric of the table,
// each as measured.
func (r *result) jsonLine(table []metricSpec) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, make(map[string]value, len(table))}
	for _, m := range table {
		v := r.values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a ratio over nothing, as on a layer the workload does not drive
		}
		out.Metrics[m.Name] = value{v, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// benchmarkJSON renders BENCHMARK.json from the tables above.
func benchmarkJSON() string {
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	layers := make([]layer, len(perLayer))
	for i, m := range perLayer {
		layers[i] = layer{m.Name, m.Unit, m.Better}
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	err := enc.Encode(struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []layer        `json:"per_layer"`
	}{[]string{"bash", "bench/run.sh"}, []string{"bench"}, runSeconds, workloads, endToEnd, layers})
	if err != nil {
		panic(err)
	}
	return b.String()
}
