package main

import (
	"fmt"
	"math"

	"d3t"
	"d3t/internal/wire"
)

// The oracle is the reference every transport run is checked against: the
// published sequence replayed, in order and on one goroutine, through a
// tree of d3t.NodeCores joined by a recording transport. Per item the
// real clusters deliver in the same FIFO order, so they must make the
// very same forward/suppress decisions, deliver the very same values to
// the very same sessions, and end holding the very same copies.

// expect is one client delivery the oracle predicts: which publish of
// the current chunk it carries, and the value that identifies it.
type expect struct {
	pub   int32
	value float64
}

// pubUpdate is an update in flight inside the oracle, tagged with the
// publish (index into the current chunk) that caused it.
type pubUpdate struct {
	pub   int32
	item  int32
	value float64
}

// oracleFrame is one frame on an overlay edge: every copy one apply pass
// produced for one dependent, as netio would vector it.
type oracleFrame struct {
	to  d3t.RepositoryID
	ups []pubUpdate
}

// oracleSession is the oracle's side of one client session.
type oracleSession struct {
	spec sessionSpec
	// view is the session's predicted copy per item (NaN: none yet).
	view []float64
	// lists holds, per item, the deliveries predicted for the current
	// chunk in delivery order. The session's receiver consumes them.
	lists [][]expect
}

type oracle struct {
	w        *world
	overlay  *d3t.Overlay
	cores    []*d3t.NodeCore
	sessions []*oracleSession

	queue []oracleFrame
	pend  []oracleFrame // the current pass's frames, one per dependent
	// arena backs the frames of one source pass, frameCap updates each (a
	// pass applies each item at most once, so no frame outgrows the batch).
	arena    []pubUpdate
	frameCap int
	wireUps  []wire.Update
	pub      int32

	// remaining[i] counts the client deliveries publish i of the current
	// chunk still owes; outstanding is their sum.
	remaining   []int32
	outstanding int

	// Exact work counts over everything replayed so far.
	updates, applies, checks, forwards uint64
	frames, frameUpdates, frameBytes   uint64
	clientDeliveries                   uint64

	// rec, when set, keeps the current chunk's traffic for the replay
	// probes.
	rec     *traffic
	scratch []byte
}

// traffic is one chunk's recorded traffic: what the layer probes replay.
type traffic struct {
	// frames is the frame mix in wire form, capped at maxRecordedFrames.
	frames []wire.Frame
	// applied is the update sequence one interior repository received.
	interior d3t.RepositoryID
	applied  []update
}

const maxRecordedFrames = 1 << 16

// newOracle builds cores over a fresh copy of the world's overlay, seeds
// them like a freshly started cluster, and admits the sessions.
func newOracle(w *world, specs []sessionSpec) (*oracle, error) {
	ov, err := w.overlay()
	if err != nil {
		return nil, err
	}
	o := &oracle{w: w, overlay: ov, cores: make([]*d3t.NodeCore, len(ov.Nodes))}
	for i, r := range ov.Nodes {
		o.cores[i] = d3t.NewNodeCore(r, ov.Node, d3t.NodeOptions{})
		for item, v := range w.initial {
			o.cores[i].Seed(item, v)
		}
	}
	for _, spec := range specs {
		s := &oracleSession{spec: spec, view: make([]float64, len(w.items)), lists: make([][]expect, len(w.items))}
		for j := range s.view {
			s.view[j] = math.NaN()
		}
		o.sessions = append(o.sessions, s)
		ns := d3t.NewNodeSession(spec.name, spec.wants)
		ns.SetTag(s)
		if reason, err := o.cores[spec.repo].Admit(ns, o); err != nil {
			return nil, fmt.Errorf("oracle: %v (%v)", err, reason)
		}
	}
	return o, nil
}

// Now implements d3t.NodeTransport; the oracle has no clock.
func (o *oracle) Now() d3t.Time { return 0 }

// SendToDependent implements d3t.NodeTransport: the copy joins the
// pass's frame for that dependent, in first-forward order.
func (o *oracle) SendToDependent(dep d3t.RepositoryID, item string, v float64, resync bool) bool {
	u := pubUpdate{pub: o.pub, item: o.w.itemIdx[item], value: v}
	for i := range o.pend {
		if o.pend[i].to == dep {
			o.pend[i].ups = append(o.pend[i].ups, u)
			return true
		}
	}
	if cap(o.arena)-len(o.arena) < o.frameCap {
		o.arena = make([]pubUpdate, 0, 256*o.frameCap) // frames in flight keep the old one alive
	}
	start := len(o.arena)
	o.arena = o.arena[:start+o.frameCap]
	o.pend = append(o.pend, oracleFrame{to: dep, ups: append(o.arena[start:start:start+o.frameCap], u)})
	return true
}

// SendToClient implements d3t.NodeTransport: a resync push sets the
// session's starting view, anything else is a predicted delivery.
func (o *oracle) SendToClient(ns *d3t.NodeSession, item string, v float64, resync bool) {
	s := ns.Tag().(*oracleSession)
	it := o.w.itemIdx[item]
	s.view[it] = v
	if resync {
		return
	}
	s.lists[it] = append(s.lists[it], expect{pub: o.pub, value: v})
	o.outstanding++
	o.clientDeliveries++
	o.remaining[o.pub]++
	o.countFrame(&wire.Frame{Kind: wire.KindUpdate, Item: item, Value: v})
}

// countFrame accounts one frame in its exact wire size.
func (o *oracle) countFrame(f *wire.Frame) {
	b, err := wire.AppendFrame(o.scratch[:0], f)
	if err != nil {
		panic(fmt.Sprintf("oracle: unencodable frame: %v", err)) // generated items and values always encode
	}
	o.scratch = b
	o.frames++
	o.frameBytes += uint64(len(b))
	if f.Kind == wire.KindBatch {
		o.frameUpdates += uint64(len(f.Ups))
	} else {
		o.frameUpdates++
	}
	if o.rec != nil && len(o.rec.frames) < maxRecordedFrames {
		kept := *f
		kept.Ups = append([]wire.Update(nil), f.Ups...)
		o.rec.frames = append(o.rec.frames, kept)
	}
}

// pass applies one frame's updates at a node and queues the frames the
// pass produced, one per dependent: a single copy travels as an update
// frame, several as one batch frame.
func (o *oracle) pass(node d3t.RepositoryID, ups []pubUpdate) {
	o.pend = o.pend[:0]
	core := o.cores[node]
	for _, u := range ups {
		o.pub = u.pub
		fw, ch := core.Apply(o.w.items[u.item], u.value, o)
		o.applies++
		o.forwards += uint64(fw)
		o.checks += uint64(ch)
		if o.rec != nil && node == o.rec.interior {
			o.rec.applied = append(o.rec.applied, update{item: u.item, value: u.value})
		}
	}
	for _, f := range o.pend {
		wf := wire.Frame{Kind: wire.KindUpdate}
		if len(f.ups) == 1 {
			wf.Item, wf.Value = o.w.items[f.ups[0].item], f.ups[0].value
		} else {
			wf.Kind, wf.Ups = wire.KindBatch, o.wireUps[:0]
			for _, u := range f.ups {
				wf.Ups = append(wf.Ups, wire.Update{Item: o.w.items[u.item], Value: u.value})
			}
			o.wireUps = wf.Ups
		}
		o.countFrame(&wf)
		o.queue = append(o.queue, f)
	}
}

// replay predicts one chunk: chunk[i:i+batch] enter the source as one
// pass (batch 1 is a single Publish), and every frame that causes is
// carried through to the leaves. It resets the per-chunk expectations,
// which is only sound once the previous chunk has fully arrived.
func (o *oracle) replay(chunk []update, batch int) {
	if cap(o.remaining) < len(chunk) {
		o.remaining = make([]int32, len(chunk))
	}
	o.remaining = o.remaining[:len(chunk)]
	for i := range o.remaining {
		o.remaining[i] = 0
	}
	o.outstanding = 0
	for _, s := range o.sessions {
		for i := range s.lists {
			s.lists[i] = s.lists[i][:0]
		}
	}
	o.frameCap = batch
	src := make([]pubUpdate, 0, batch)
	for i := 0; i < len(chunk); i += batch {
		src, o.arena = src[:0], o.arena[:0]
		for j := i; j < i+batch && j < len(chunk); j++ {
			src = append(src, pubUpdate{pub: int32(j), item: chunk[j].item, value: chunk[j].value})
		}
		o.updates += uint64(len(src))
		o.queue = o.queue[:0]
		o.pass(d3t.SourceID, src)
		for head := 0; head < len(o.queue); head++ {
			o.pass(o.queue[head].to, o.queue[head].ups)
		}
	}
}

// record makes the next replay keep its traffic for the layer probes.
func (o *oracle) record() *traffic {
	o.rec = &traffic{interior: reposAtLevel(o.overlay, 1)[0].ID}
	return o.rec
}

// checkCluster compares a drained cluster with the oracle and returns the
// number of failed checks, describing the first few on the way:
// per-(node, item) decision counts must be equal, every repository must
// hold exactly the oracle's copy, and that copy must be within the
// repository's tolerance of the final source value.
func (o *oracle) checkCluster(sys system, report func(string)) int {
	failed := 0
	fail := func(format string, args ...any) {
		failed++
		if failed <= 5 {
			report(fmt.Sprintf(format, args...))
		}
	}
	for _, r := range o.overlay.Nodes {
		want, got := o.cores[r.ID].EdgeDecisions(), sys.decisions(r.ID)
		for item, d := range want {
			if got[item] != d {
				fail("%v %s: decisions %+v, oracle %+v", r.ID, item, got[item], d)
			}
		}
		for item := range got {
			if _, ok := want[item]; !ok {
				fail("%v %s: decisions %+v, oracle none", r.ID, item, got[item])
			}
		}
		if r.IsSource() {
			continue
		}
		for _, item := range r.Items() {
			final, _ := o.cores[d3t.SourceID].Value(item)
			want, _ := o.cores[r.ID].Value(item)
			got, ok := sys.value(r.ID, item)
			tol, _ := r.ServingTolerance(item)
			switch {
			case !ok || got != want:
				fail("%v %s: holds %v, oracle %v", r.ID, item, got, want)
			case math.Abs(final-got) > float64(tol):
				fail("%v %s: holds %v, source %v, tolerance %v", r.ID, item, got, final, tol)
			}
		}
	}
	return failed
}

// checkView compares one session's final view with the oracle's and with
// the session's tolerance of the final source value.
func (o *oracle) checkView(s *oracleSession, view []float64, report func(string)) int {
	failed := 0
	for item, tol := range s.spec.wants {
		it := o.w.itemIdx[item]
		final, _ := o.cores[d3t.SourceID].Value(item)
		switch {
		case view[it] != s.view[it]:
			failed++
			report(fmt.Sprintf("%s %s: view %v, oracle %v", s.spec.name, item, view[it], s.view[it]))
		case math.Abs(final-view[it]) > float64(tol):
			failed++
			report(fmt.Sprintf("%s %s: view %v, source %v, tolerance %v", s.spec.name, item, view[it], final, tol))
		}
	}
	return failed
}
