package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"d3t"
)

// transportWorkload is one of the three workloads that move real updates
// through a running cluster.
type transportWorkload struct {
	name string
	// layer prefixes the transport's own per-layer metrics.
	layer string
	// batch is the number of updates per source pass: 1 is a single
	// Publish, more is one PublishBatch.
	batch int
	// tick and perTick set the open-loop rate of the latency phase. The
	// rates sit under a quarter of measured capacity (here about 4 % for
	// live, 9 % for netio, 13 % for the durable batches) and are high
	// enough that a half-second window holds about a thousand receipts:
	// 10000 updates/s on the single-publish workloads, 16000 in
	// 16-update batches.
	tick    time.Duration
	perTick int
	durable bool
	start   func(w *world, walDir string) (system, error)
}

var transportWorkloads = []transportWorkload{
	{name: "live-fanout", layer: "live", batch: 1, tick: time.Millisecond, perTick: 10,
		start: func(w *world, _ string) (system, error) { return startLive(w) }},
	{name: "netio-fanout", layer: "netio", batch: 1, tick: time.Millisecond, perTick: 10,
		start: func(w *world, _ string) (system, error) { return startNetio(w) }},
	{name: "netio-durable", layer: "netio", batch: 16, tick: 2 * time.Millisecond, perTick: 32, durable: true,
		start: func(w *world, dir string) (system, error) { return startDurable(w, dir) }},
}

// params sizes one run. The command derives it from -seconds; the smoke
// test passes millisecond phases.
type params struct {
	seed int64
	// measure is the run's measuring time, shared out among its phases.
	measure time.Duration
	// setups is how many times the set-up is repeated for setup_s.
	setups int
	// drain bounds the wait for a chunk's last deliveries.
	drain  time.Duration
	traced bool
	outDir string
	tmpDir string
}

// window is the closed-loop bound: at most this many published updates
// may still owe a client a delivery.
//
// valve is the same bound for the open loop, set wide enough never to
// bind while the clients keep up (a handful of updates are in flight at
// the paced rates) and narrow enough that no client channel, 256 deep in
// both transports, can overflow. Without it a drain goroutine that the
// host holds back for a fifth of a second — it happened once in ten
// sizing runs — makes the cluster drop pushes on the full channel, and a
// run would fail for what the host did. With it the generator waits
// instead; the wait counts as the cluster's (the ticks behind are due at
// their scheduled times), and the run notes how often it happened.
const (
	window = 128
	valve  = 192
)

// chunk is a stretch of the published sequence the oracle has predicted
// and the cluster is working through. Exactly one is current at a time;
// the next is predicted only when the current one has fully arrived, so
// the oracle is always in step with what was published.
type chunk struct {
	ups []update
	// due[i] is when publish i was due, in ns since the run's epoch. The
	// publisher stores it before the publish call, receivers load it on
	// receipt; both atomically, because a TCP socket orders them in fact
	// but not for the race detector.
	due []int64
	// remaining and outstanding are the oracle's counts, counted down by
	// the receivers.
	remaining   []int32
	outstanding atomic.Int64
	doneAt      atomic.Int64
	// paced marks the open-loop latency phase: receipts are kept as
	// latency samples, and srcBefore/viewBefore hold the source's and each
	// session's copies as the phase began, for the loss timeline.
	paced      bool
	srcBefore  []float64
	viewBefore [][]float64
	// callStart/callEnd time each source pass of a traced chunk, indexed
	// by the pass's first publish.
	callStart, callEnd []int64
	// tokens is the chunk's flow-control semaphore: the publisher puts one
	// in for every update that owes a delivery, the receiver that settles
	// the update's last delivery takes it out.
	tokens chan struct{}
}

// sample is one receipt of a paced chunk.
type sample struct {
	pub int32
	at  int64
}

// receiver is the benchmark's side of one client session: a single
// goroutine draining the session's channel and matching each receipt to
// the oracle's prediction by value.
type receiver struct {
	run  *transportRun
	sess *oracleSession
	cs   clientSession
	// view, cursor and the counts below belong to the drain goroutine;
	// the main goroutine touches them only between chunks.
	view    []float64
	cursor  []int
	samples []sample
	// received counts pushes out of the channel; resyncs the admission
	// pushes among them (read by the main goroutine while it waits for
	// the session to be in step).
	received   uint64
	resyncs    atomic.Int64
	missing    int
	unexpected int
}

// startSpans times the set-up calls of one cluster start.
type startSpans struct {
	clusterStart, subscribe time.Duration
}

// transportRun is the state of one run of one transport workload.
type transportRun struct {
	wl  transportWorkload
	p   params
	res *result

	// What the last set-up left running; tearDown stops and removes it.
	w        *world
	sys      system
	sessions []clientSession
	walDir   string
	o        *oracle

	epoch     time.Time
	receivers []*receiver
	wg        sync.WaitGroup
	cur       atomic.Pointer[chunk]
	done      chan struct{}
	// waits counts the publishes that found the flow-control bound
	// reached and had to wait.
	waits int
	spans *spanLog
	// aborted is set when predicted deliveries failed to arrive: the run
	// publishes nothing further and goes straight to the checks.
	aborted bool
}

func (t *transportRun) now() int64 { return int64(time.Since(t.epoch)) }

// onReceipt handles one push. A delivery is identified by its value: the
// receiver scans forward from its cursor in the oracle's list for that
// item, and whatever it has to skip was dropped on the way.
func (r *receiver) onReceipt(item string, v float64, resync bool) {
	now := r.run.now()
	it := r.run.w.itemIdx[item]
	r.view[it] = v
	r.received++
	if resync {
		r.resyncs.Add(1)
		return
	}
	c := r.run.cur.Load()
	if c == nil {
		r.unexpected++
		return
	}
	list, at := r.sess.lists[it], r.cursor[it]
	j := at
	for j < len(list) && list[j].value != v {
		j++
	}
	if j == len(list) {
		r.unexpected++
		return
	}
	for k := at; k < j; k++ {
		r.missing++
		r.settle(c, list[k].pub, now)
	}
	r.cursor[it] = j + 1
	if c.paced {
		r.samples = append(r.samples, sample{pub: list[j].pub, at: now})
	}
	r.settle(c, list[j].pub, now)
}

// settle counts one predicted delivery as accounted for.
func (r *receiver) settle(c *chunk, pub int32, now int64) {
	if atomic.AddInt32(&c.remaining[pub], -1) == 0 {
		select {
		case <-c.tokens:
		default:
		}
	}
	if c.outstanding.Add(-1) == 0 {
		c.doneAt.Store(now)
		select {
		case r.run.done <- struct{}{}:
		default:
		}
	}
}

// setUp builds the world, starts the cluster and subscribes the sessions,
// timing the calls. On an error it leaves nothing running.
func (t *transportRun) setUp() (elapsed time.Duration, spans startSpans, err error) {
	begin := time.Now()
	t.w, err = newWorld(t.p.seed, sessionCount())
	if err != nil {
		return 0, spans, err
	}
	if t.wl.durable {
		t.walDir, err = os.MkdirTemp(t.p.tmpDir, "d3tbench-wal-")
		if err != nil {
			return 0, spans, err
		}
	}
	at := time.Now()
	sys, err := t.wl.start(t.w, t.walDir)
	if err != nil {
		t.tearDown()
		return 0, spans, err
	}
	t.sys = sys
	spans.clusterStart = time.Since(at)
	at = time.Now()
	for _, spec := range t.specs() {
		cs, err := t.sys.subscribe(spec)
		if err != nil {
			t.tearDown()
			return 0, spans, err
		}
		t.sessions = append(t.sessions, cs)
	}
	spans.subscribe = time.Since(at)
	return time.Since(begin), spans, nil
}

// tearDown closes whatever the last set-up left: sessions, cluster, log
// directory. Closing twice is harmless, so it also runs deferred.
func (t *transportRun) tearDown() error {
	for _, s := range t.sessions {
		s.close()
	}
	t.sessions = nil
	var err error
	if t.sys != nil {
		err, t.sys = t.sys.close(), nil
	}
	if t.walDir != "" {
		os.RemoveAll(t.walDir)
		t.walDir = ""
	}
	return err
}

// specs lists the sessions of the run: the timed ones first, then, in a
// traced run, the depth-1 and depth-2 probes.
func (t *transportRun) specs() []sessionSpec {
	if t.p.traced {
		return append(append([]sessionSpec(nil), t.w.sessions...), t.w.probes...)
	}
	return t.w.sessions
}

// sessionCount is min(4, max(2, nproc)): one drain goroutine each, never
// more than there are processors to run them beside the cluster.
func sessionCount() int {
	n := runtime.NumCPU()
	if n < 2 {
		n = 2
	}
	if n > 4 {
		n = 4
	}
	return n
}

// runTransport runs one transport workload: repeated set-up, the
// open-loop latency phase, the closed-loop capacity phase (untraced runs)
// or the traced phase and layer probes (traced runs), then the checks.
func runTransport(wl transportWorkload, p params) (*result, error) {
	t := &transportRun{wl: wl, p: p, res: newResult(wl.name), done: make(chan struct{}, 1)}
	defer t.tearDown()

	// Set-up, several times over; the last one stays up for the run. A
	// traced run sets up once and reports the parts instead.
	reps := p.setups
	if p.traced {
		reps = 1
	}
	var setups []float64
	var spans startSpans
	for i := 0; i < reps; i++ {
		if err := t.tearDown(); err != nil {
			return nil, err
		}
		elapsed, sp, err := t.setUp()
		if err != nil {
			return nil, err
		}
		setups, spans = append(setups, elapsed.Seconds()), sp
	}
	if !p.traced {
		t.res.set("setup_s", steady(setups, lower))
	}

	var err error
	t.o, err = newOracle(t.w, t.specs())
	if err != nil {
		return nil, err
	}
	t.epoch = time.Now()
	for i, cs := range t.sessions {
		r := &receiver{run: t, sess: t.o.sessions[i], cs: cs,
			view: make([]float64, len(t.w.items)), cursor: make([]int, len(t.w.items))}
		t.receivers = append(t.receivers, r)
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			cs.drain(r.onReceipt)
		}()
	}
	if err := t.awaitResync(); err != nil {
		return nil, err
	}

	if p.traced {
		err = t.tracedPhases(spans)
	} else {
		err = t.measuredPhases()
	}
	if err != nil {
		return nil, err
	}

	// Checks. Sessions close first so every drain goroutine has returned
	// before its view is read.
	dropped := uint64(0)
	for _, r := range t.receivers {
		r.cs.close()
	}
	t.wg.Wait()
	report := func(s string) { t.res.note("%s", s) }
	for _, r := range t.receivers {
		dropped += r.cs.dropped(r.received)
		t.res.failed += r.missing + r.unexpected + t.o.checkView(r.sess, r.view, report)
		if r.missing+r.unexpected > 0 {
			t.res.note("%s: %d deliveries missing, %d unexpected", r.sess.spec.name, r.missing, r.unexpected)
		}
	}
	t.res.failed += t.settleAndCheck(report)
	t.res.attempted = int(t.o.clientDeliveries)
	if p.traced {
		if wl.layer == "live" {
			t.res.set("live.session_dropped", float64(dropped))
		} else {
			t.res.set("netio.client_dropped", float64(dropped))
		}
		t.res.set("netio.conns", float64(t.sys.conns()))
	}
	if dropped > 0 {
		t.res.note("%d pushes dropped on full client channels", dropped)
	}
	if wl.durable {
		err = t.restartCheck()
	} else {
		err = t.tearDown()
	}
	if err != nil {
		return nil, err
	}
	if t.spans != nil {
		if err := t.spans.write(p.outDir, wl.name); err != nil {
			return nil, err
		}
	}
	return t.res, nil
}

// settleAndCheck holds the cluster against the oracle. The last client
// delivery says nothing about repositories that serve no session: copies
// may still be in flight to them, so the check is repeated until it
// passes or the drain time is up, and only the last attempt is reported.
func (t *transportRun) settleAndCheck(report func(string)) int {
	deadline := time.Now().Add(t.p.drain)
	for {
		if t.o.checkCluster(t.sys, func(string) {}) == 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return t.o.checkCluster(t.sys, report)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// awaitResync waits until every session has received the admission push
// of each item it watches, so the first publish finds the session in
// step with the oracle's starting view.
func (t *transportRun) awaitResync() error {
	deadline := time.Now().Add(5 * time.Second)
	for _, r := range t.receivers {
		for r.resyncs.Load() < int64(len(r.sess.spec.wants)) {
			if time.Now().After(deadline) {
				return fmt.Errorf("%s: session %s got %d of %d admission pushes in 5s",
					t.wl.name, r.sess.spec.name, r.resyncs.Load(), len(r.sess.spec.wants))
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// begin predicts a chunk and makes it current.
func (t *transportRun) begin(ups []update, paced, traced bool) *chunk {
	c := &chunk{ups: ups, due: make([]int64, len(ups)), paced: paced, tokens: make(chan struct{}, window)}
	if paced {
		c.tokens = make(chan struct{}, valve)
		c.srcBefore = make([]float64, len(t.w.items))
		for i, item := range t.w.items {
			c.srcBefore[i], _ = t.o.cores[d3t.SourceID].Value(item)
		}
		for _, s := range t.o.sessions {
			c.viewBefore = append(c.viewBefore, append([]float64(nil), s.view...))
		}
	}
	t.o.replay(ups, t.wl.batch)
	c.remaining = t.o.remaining
	c.outstanding.Store(int64(t.o.outstanding))
	if traced {
		c.callStart, c.callEnd = make([]int64, len(ups)), make([]int64, len(ups))
	}
	for _, r := range t.receivers {
		for i := range r.cursor {
			r.cursor[i] = 0
		}
		if paced {
			r.samples = make([]sample, 0, t.o.outstanding/len(t.receivers)+1024)
		}
	}
	select {
	case <-t.done: // a stale signal must not end this chunk early
	default:
	}
	t.cur.Store(c)
	return c
}

// finish waits for the chunk's last deliveries. Deliveries still missing
// at the deadline fail, and the run stops publishing there: the oracle
// can no longer be kept in step with the cluster.
func (t *transportRun) finish(c *chunk) {
	if c.outstanding.Load() > 0 {
		select {
		case <-t.done:
		case <-time.After(t.p.drain):
		}
	}
	if left := c.outstanding.Load(); left > 0 {
		t.abort("%d of %d predicted deliveries missing %v after the last publish", left, t.o.outstanding, t.p.drain)
		t.res.failed += int(left)
	}
}

func (t *transportRun) abort(format string, args ...any) {
	t.aborted = true
	t.res.note("aborted: "+format, args...)
}

// pass publishes ups[i:i+batch] as one source pass due at dueNs.
func (t *transportRun) pass(c *chunk, i int, dueNs int64) error {
	end := i + t.wl.batch
	if end > len(c.ups) {
		end = len(c.ups)
	}
	for j := i; j < end; j++ {
		atomic.StoreInt64(&c.due[j], dueNs)
		if atomic.LoadInt32(&c.remaining[j]) > 0 && !t.acquire(c) {
			return nil
		}
	}
	if c.callStart == nil {
		return t.sys.publish(t.w.items, c.ups[i:end])
	}
	c.callStart[i] = t.now()
	err := t.sys.publish(t.w.items, c.ups[i:end])
	c.callEnd[i] = t.now()
	return err
}

// acquire takes one flow-control token, waiting if the bound is reached.
// It reports false, having aborted the run, if no delivery settled for
// the whole drain time.
func (t *transportRun) acquire(c *chunk) bool {
	select {
	case c.tokens <- struct{}{}:
		return true
	default:
	}
	t.waits++
	select {
	case c.tokens <- struct{}{}:
		return true
	case <-time.After(t.p.drain):
		t.abort("%d publishes owed a delivery for %v", cap(c.tokens), t.p.drain)
		t.res.failed++
		return false
	}
}

// paced publishes the chunk open loop, perTick updates every tick on an
// absolute schedule, and returns how late the generator woke for each
// tick it slept before. The source is a feed, not a caller: the schedule
// does not wait for the cluster. Pacing sleeps and never spins, because a
// spinning generator starves the netpoller and doubles TCP latency.
//
// A tick the generator slept before is due when it woke: timer overshoot
// is the generator's lateness, reported and not charged to the cluster.
// A tick whose scheduled time passed while the generator was still inside
// earlier publish calls is due at its scheduled time: that wait the
// cluster imposed, and it counts.
func (t *transportRun) paced(c *chunk) (lateness []int64, start int64, err error) {
	begin := time.Now()
	start = int64(begin.Sub(t.epoch))
	for i, k := 0, 0; i < len(c.ups); i, k = i+t.wl.perTick, k+1 {
		sched := begin.Add(time.Duration(k) * t.wl.tick)
		due := sched
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
			due = time.Now()
			lateness = append(lateness, int64(due.Sub(sched)))
		}
		for j := i; j < i+t.wl.perTick && j < len(c.ups); j += t.wl.batch {
			if err := t.pass(c, j, int64(due.Sub(t.epoch))); err != nil || t.aborted {
				return nil, 0, err
			}
		}
	}
	t.finish(c)
	return lateness, start, nil
}

// burst publishes the chunk closed loop under flow control and returns
// how long it took until the last delivery arrived.
func (t *transportRun) burst(c *chunk) (time.Duration, error) {
	begin := t.now()
	for i := 0; i < len(c.ups); i += t.wl.batch {
		if err := t.pass(c, i, t.now()); err != nil || t.aborted {
			return 0, err
		}
	}
	end := t.now()
	t.finish(c)
	if at := c.doneAt.Load(); at > end {
		end = at
	}
	return time.Duration(end - begin), nil
}

// pacedChunkLen is the number of updates an open-loop phase of length d
// publishes: whole ticks only.
func (t *transportRun) pacedChunkLen(d time.Duration) int {
	return int(d/t.wl.tick) * t.wl.perTick
}

// measuredPhases is the untraced run: the latency phase for 45 % of the
// measuring time, the capacity phase for the rest.
func (t *transportRun) measuredPhases() error {
	lat := t.p.measure * 45 / 100
	ups := make([]update, t.pacedChunkLen(lat))
	t.w.gen.fill(ups)
	c := t.begin(ups, true, false)
	lateness, start, err := t.paced(c)
	if err != nil || t.aborted {
		return err
	}
	ls := t.latencyStats(c, start, lat, lateness)
	t.res.set("latency_p50_ms", ls.p50)
	t.res.note("latency: p99 %.4f ms, %d windows of %v, %d samples in the median window; loss %.4f %%; generator lateness p50 %.3f ms p99 %.3f ms, %d stalled windows, %d waits at the valve",
		ls.p99, ls.windows, ls.window, ls.samplesPerWindow, ls.lossPct, ls.latenessP50, ls.latenessP99, ls.stalled, t.waits)
	return t.capacityPhase(t.p.measure - lat)
}

// capacityPhase publishes closed-loop bursts until its time is up. Each
// burst is predicted just before it runs, outside the timed stretch, and
// is sized to last about half a second at the rate seen so far; the first
// is a warm-up. Capacity is the steady burst rate (see steady): a mean
// over the phase would carry every stall of the host.
func (t *transportRun) capacityPhase(d time.Duration) error {
	deadline := time.Now().Add(d)
	size := 4096
	var rates []float64
	var used usage
	var published int
	buf := make([]update, 0, 1<<16)
	for burstNo := 0; time.Now().Before(deadline); burstNo++ {
		size -= size % t.wl.batch
		if cap(buf) < size {
			buf = make([]update, size)
		}
		buf = buf[:size]
		t.w.gen.fill(buf)
		c := t.begin(buf, false, false)
		before := readUsage()
		took, err := t.burst(c)
		if err != nil || t.aborted {
			return err
		}
		rate := float64(size) / took.Seconds()
		if burstNo > 0 {
			rates = append(rates, rate)
			used = used.add(readUsage().sub(before))
			published += size
		}
		// Aim the next burst at half a second, or at what is left.
		aim := time.Until(deadline)
		if aim > time.Second/2 {
			aim = time.Second / 2
		}
		size = int(rate * aim.Seconds())
		if size < 1024 {
			size = 1024
		}
	}
	if len(rates) == 0 {
		return fmt.Errorf("%s: capacity phase of %v fitted no burst after the warm-up", t.wl.name, d)
	}
	n := len(rates)
	t.res.set("capacity_updates_per_s", steady(rates, higher))
	t.res.set("alloc_bytes_per_update", float64(used.alloc)/float64(published))
	t.res.note("capacity: %d bursts, %d updates; cpu %.2f us/update, %d GC cycles, %.2f ms GC pause, max RSS %.0f MB",
		n, published, us(int64(used.cpu))/float64(published), used.gcCycles, ms(int64(used.gcPause)), used.maxRSSMB)
	return nil
}

// latencyStats is what one open-loop phase yields.
type latencyStats struct {
	p50, p99, lossPct        float64
	window                   time.Duration
	windows                  int
	samplesPerWindow         int
	latenessP50, latenessP99 float64
	stalled                  int
	// hop[d] is the median latency at sessions of depth d, in ms.
	hop        [worldDepth + 1]float64
	p50s, p99s []float64
}

// latencyStats folds the phase's receipts into half-second windows. A
// window's latencies are receipt minus due, over the timed (depth-3)
// sessions; the phase reports the steady value (see steady) over windows
// of the window median and of the window p99, the first window being
// warm-up. Windows are needed, not a nicety: stalls of 26-60 ms hit about
// one sizing run in six, and slow stretches of seconds most of them.
func (t *transportRun) latencyStats(c *chunk, start int64, phase time.Duration, lateness []int64) latencyStats {
	ls := latencyStats{window: time.Second / 2}
	if phase < 2*time.Second {
		ls.window = phase / 4
	}
	nwin := int(phase / ls.window)
	win := func(ns int64) int {
		w := int((ns - start) / int64(ls.window))
		if w >= nwin {
			w = nwin - 1
		}
		return w
	}
	perWin := make([][]int64, nwin)
	perDepth := make([][]int64, worldDepth+1)
	for _, r := range t.receivers {
		for _, s := range r.samples {
			due := atomic.LoadInt64(&c.due[s.pub])
			w := win(due)
			if w == 0 {
				continue
			}
			perDepth[r.sess.spec.depth] = append(perDepth[r.sess.spec.depth], s.at-due)
			if r.sess.spec.timed() {
				perWin[w] = append(perWin[w], s.at-due)
			}
		}
	}
	var p50s, p99s, counts []float64
	for _, xs := range perWin[1:] {
		if len(xs) == 0 {
			continue
		}
		counts = append(counts, float64(len(xs)))
		p50s = append(p50s, ms(quantile(xs, 0.5)))
		p99s = append(p99s, ms(quantile(xs, 0.99)))
	}
	ls.windows = len(p50s)
	ls.p50, ls.p99, ls.samplesPerWindow = steady(p50s, lower), steady(p99s, lower), int(median(counts))
	for d := range perDepth {
		ls.hop[d] = ms(quantile(perDepth[d], 0.5))
	}
	ls.latenessP50, ls.latenessP99 = ms(quantile(lateness, 0.5)), ms(quantile(lateness, 0.99))
	ls.stalled = stalledWindows(lateness, nwin)
	ls.lossPct = t.clientLoss(c, start, ls.window, nwin)
	return ls
}

// stalledWindows counts the windows in which the generator's lateness
// p99 passed 5 ms. lateness has one entry per tick the generator slept
// before, in tick order; spreading them evenly over the windows is exact
// enough to flag a stall.
func stalledWindows(lateness []int64, nwin int) int {
	stalled := 0
	per := len(lateness) / nwin
	if per == 0 {
		return 0
	}
	for w := 0; w < nwin; w++ {
		xs := append([]int64(nil), lateness[w*per:(w+1)*per]...)
		if quantile(xs, 0.99) > int64(5*time.Millisecond) {
			stalled++
		}
	}
	return stalled
}

// clientLoss is the paper's metric measured at the client: the share of
// time a timed session's view of an item is further from the source than
// the session's tolerance, the source timeline being the due times and
// the view timeline the receipts. It is the steady value over windows
// (the first left out) of each window's time-weighted share, in percent.
func (t *transportRun) clientLoss(c *chunk, start int64, window time.Duration, nwin int) float64 {
	viol := make([]int64, nwin)
	total := make([]int64, nwin)
	end := start + int64(nwin)*int64(window)
	// add spreads the interval [a, b) over the windows it crosses.
	add := func(acc []int64, a, b int64) {
		if a < start {
			a = start
		}
		if b > end {
			b = end
		}
		for a < b {
			w := (a - start) / int64(window)
			edge := start + (w+1)*int64(window)
			if edge > b {
				edge = b
			}
			acc[w] += edge - a
			a = edge
		}
	}
	// Publishes of the chunk, by item, in publish order.
	byItem := make([][]int32, len(t.w.items))
	for i, u := range c.ups {
		byItem[u.item] = append(byItem[u.item], int32(i))
	}
	type event struct {
		at    int64
		value float64
		view  bool
	}
	for ri, r := range t.receivers {
		if !r.sess.spec.timed() {
			continue
		}
		receipts := make([][]sample, len(t.w.items))
		for _, s := range r.samples {
			it := c.ups[s.pub].item
			receipts[it] = append(receipts[it], s)
		}
		for item, tol := range r.sess.spec.wants {
			it := t.w.itemIdx[item]
			var evs []event
			for _, i := range byItem[it] {
				evs = append(evs, event{at: atomic.LoadInt64(&c.due[i]), value: c.ups[i].value})
			}
			for _, s := range receipts[it] {
				evs = append(evs, event{at: s.at, value: c.ups[s.pub].value, view: true})
			}
			sort.SliceStable(evs, func(a, b int) bool { return evs[a].at < evs[b].at })
			src, view, last := c.srcBefore[it], c.viewBefore[ri][it], start
			violated := abs(src-view) > float64(tol)
			for _, e := range evs {
				if violated {
					add(viol, last, e.at)
				}
				if e.view {
					view = e.value
				} else {
					src = e.value
				}
				last = e.at
				violated = abs(src-view) > float64(tol)
			}
			if violated {
				add(viol, last, end)
			}
			add(total, start, end)
		}
	}
	var shares []float64
	for w := 1; w < nwin; w++ {
		if total[w] > 0 {
			shares = append(shares, 100*float64(viol[w])/float64(total[w]))
		}
	}
	return steady(shares, lower)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// restartCheck is the end of a durable run: close every node, read what
// the logs hold, start the cluster again over the same directories, and
// require every copy back bit for bit.
func (t *transportRun) restartCheck() error {
	s := t.sys.(*netioSystem)
	type held struct {
		id    d3t.RepositoryID
		item  string
		value float64
	}
	var before []held
	for _, r := range t.o.overlay.Repos() {
		for _, item := range r.Items() {
			if v, ok := s.value(r.ID, item); ok {
				before = append(before, held{r.ID, item, v})
			}
		}
	}
	if err := s.close(); err != nil {
		return fmt.Errorf("%s: durability: %w", t.wl.name, err)
	}
	records, err := loggedUpdates(t.walDir, len(s.configs))
	if err != nil {
		return err
	}
	at := time.Now()
	if err := s.start(t.o.overlay); err != nil {
		return fmt.Errorf("%s: restart: %w", t.wl.name, err)
	}
	recover := time.Since(at)
	for _, h := range before {
		t.res.attempted++
		if v, ok := s.value(h.id, h.item); !ok || v != h.value {
			t.res.failed++
			t.res.note("restart: %v %s holds %v, held %v before the close", h.id, h.item, v, h.value)
		}
	}
	if t.p.traced {
		t.res.set("wal.recover_ms", ms(int64(recover)))
		t.res.set("wal.replayed_records", float64(records))
	}
	t.res.note("restart over the logs: %v, %d logged updates replayed", recover.Round(time.Microsecond), records)
	return t.tearDown()
}

// loggedUpdates opens each node's log directory the way a restart will
// and counts the updates it would replay.
func loggedUpdates(walDir string, nodes int) (int, error) {
	total := 0
	for id := 0; id < nodes; id++ {
		dir := fmt.Sprintf("%s/repo%03d", walDir, id)
		log, rec, err := d3t.OpenWAL(dir, d3t.WALOptions{})
		if err != nil {
			return 0, fmt.Errorf("reading %s: %w", dir, err)
		}
		total += rec.Updates
		if err := log.Close(); err != nil {
			return 0, fmt.Errorf("closing %s: %w", dir, err)
		}
	}
	return total, nil
}
