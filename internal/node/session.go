package node

import (
	"fmt"
	"sort"

	"d3t/internal/coherency"
	"d3t/internal/sim"
)

// Session is one client's subscription state as the serving node tracks
// it: the watch list with the client's own tolerances, the last value
// delivered per item (the session-edge filter state of the first-push
// rule), and the delivery counters. A Session object survives migration:
// dropping it from one core and admitting it into another carries the
// client's current copies along, so the new node resyncs only the items
// whose values actually differ.
//
// Like Core, a Session is synchronized by its owning transport; its own
// methods perform no locking.
type Session struct {
	name  string
	wants map[string]coherency.Requirement
	// last holds the session-edge filter state per item. Entries are
	// pointers so the fan-out plan (Core.watchers) can hold them inline
	// and the steady-state filter loop performs no map operations.
	last map[string]*itemState

	lastServed sim.Time
	delivered  uint64
	filtered   uint64
	resyncs    uint64

	// tag is opaque transport-side state (a delivery channel, a wire
	// encoder, the transport's own session wrapper), set at admission so
	// SendToClient needs no name lookup.
	tag any
}

// SetTag attaches transport-side state to the session; Tag returns it.
func (s *Session) SetTag(v any) { s.tag = v }

// Tag returns the transport-side state attached with SetTag.
func (s *Session) Tag() any { return s.tag }

// itemState is one (session, item) edge's filter state: the last value
// pushed to the client and the first-push rule's seeded flag.
type itemState struct {
	v      float64
	seeded bool
}

// NewSession builds a detached session for the named client.
func NewSession(name string, wants map[string]coherency.Requirement) *Session {
	return &Session{
		name:  name,
		wants: wants,
		last:  make(map[string]*itemState, len(wants)),
	}
}

// state returns the session's filter state for item, creating it on
// first use.
func (s *Session) state(item string) *itemState {
	st := s.last[item]
	if st == nil {
		st = &itemState{}
		s.last[item] = st
	}
	return st
}

// Name returns the client name.
func (s *Session) Name() string { return s.name }

// Wants returns the watch list (shared, not copied).
func (s *Session) Wants() map[string]coherency.Requirement { return s.wants }

// Value returns the session's current copy of item.
func (s *Session) Value(item string) (float64, bool) {
	st := s.last[item]
	if st == nil || !st.seeded {
		return 0, false
	}
	return st.v, true
}

// Delivered, Filtered and Resyncs report the session's decision
// counters: live updates delivered, live updates suppressed by the
// client's tolerance, and catch-up values pushed on admission/migration.
func (s *Session) Delivered() uint64 { return s.delivered }
func (s *Session) Filtered() uint64  { return s.filtered }
func (s *Session) Resyncs() uint64   { return s.resyncs }

// LastServed returns the transport time of the last push to the session
// (delivery or resync).
func (s *Session) LastServed() sim.Time { return s.lastServed }

// RejectReason says why Admit turned a session away.
type RejectReason int

const (
	// RejectNone is the zero reason (admitted).
	RejectNone RejectReason = iota
	// RejectDuplicate: a session with the same name is already admitted.
	RejectDuplicate
	// RejectCap: the session cap is reached.
	RejectCap
	// RejectServing: the node does not serve some watched item at least
	// as stringently as the client demands (Eq. 1 at the leaf). The
	// source never rejects for this reason — it holds exact values.
	RejectServing
)

func (r RejectReason) String() string {
	switch r {
	case RejectNone:
		return "admitted"
	case RejectDuplicate:
		return "duplicate session name"
	case RejectCap:
		return "session cap reached"
	case RejectServing:
		return "item not served stringently enough"
	}
	return fmt.Sprintf("reject(%d)", int(r))
}

// SessionCount returns the number of admitted sessions.
func (c *Core) SessionCount() int { return len(c.sessions) }

// Redirected returns how many admissions the core has rejected — the
// subscribes a transport answers with a redirect.
func (c *Core) Redirected() int { return c.redirected }

// HasSessionRoom reports whether the session cap leaves room for one
// more session.
func (c *Core) HasSessionRoom() bool {
	return c.opts.SessionCap <= 0 || len(c.sessions) < c.opts.SessionCap
}

// CanServeSession reports whether the node serves every watched item at
// least as stringently as the client demands. The source serves any
// tolerance.
func (c *Core) CanServeSession(wants map[string]coherency.Requirement) bool {
	if c.opts.Source {
		return true
	}
	for x, tol := range wants {
		own, ok := c.self.Serving[x]
		if !ok || !own.AtLeastAsStringentAs(tol) {
			return false
		}
	}
	return true
}

// CanAdmit applies the admission policy — duplicate name, session cap,
// serving stringency — without side effects, returning RejectNone when
// the session would be admitted.
func (c *Core) CanAdmit(name string, wants map[string]coherency.Requirement) RejectReason {
	switch {
	case c.sessions[name] != nil:
		return RejectDuplicate
	case !c.HasSessionRoom():
		return RejectCap
	case !c.CanServeSession(wants):
		return RejectServing
	}
	return RejectNone
}

// NoteRedirect counts one turned-away subscribe. Transports that need to
// interleave their own wire traffic between the admission decision and
// the resync (a TCP accept frame) use CanAdmit + NoteRedirect/ForceAdmit
// instead of Admit.
func (c *Core) NoteRedirect() {
	c.redirected++
	c.obs.Redirect1()
}

// Admit applies the full admission policy and on success registers the
// session and resyncs it. A rejection is counted against Redirected and
// returned for the transport to translate (a redirect frame, the next
// placement candidate).
func (c *Core) Admit(s *Session, t Transport) (RejectReason, error) {
	if reason := c.CanAdmit(s.name, s.wants); reason != RejectNone {
		c.redirected++
		c.obs.Redirect1()
		return reason, fmt.Errorf("node: %v rejects session %q: %v", c.self.ID, s.name, reason)
	}
	c.ForceAdmit(s, t)
	return RejectNone, nil
}

// ForceAdmit registers the session without policy checks — for transports
// whose placement layer already decided (load-aware placement may
// deliberately overflow the serving check rather than strand a client) —
// and resyncs it: the node's current copy of every watched item is pushed
// in sorted order, skipping values the session provably already holds.
// Admitting a name twice on the same core panics; the transports'
// admission paths guard it.
func (c *Core) ForceAdmit(s *Session, t Transport) {
	if c.sessions[s.name] != nil {
		panic(fmt.Sprintf("node: %v: duplicate session %q", c.self.ID, s.name))
	}
	c.sessions[s.name] = s
	items := make([]string, 0, len(s.wants))
	for x, tol := range s.wants {
		items = append(items, x)
		ws := c.watchers[x]
		at := sort.Search(len(ws), func(i int) bool { return ws[i].s.name >= s.name })
		ws = append(ws, watcher{})
		copy(ws[at+1:], ws[at:])
		ws[at] = watcher{s: s, tol: tol, st: s.state(x)}
		c.watchers[x] = ws
	}
	sort.Strings(items)
	now := t.Now()
	// Admission counts as service: a session on a quiet node must not be
	// born stale (transport watchdogs migrate on LastServed silence).
	s.lastServed = now
	resyncs := 0
	for _, x := range items {
		v, ok := c.values[x]
		if !ok {
			continue
		}
		st := s.state(x)
		if st.seeded && st.v == v {
			continue // already converged; nothing to catch up on
		}
		st.v, st.seeded = v, true
		s.resyncs++
		resyncs++
		s.lastServed = now
		t.SendToClient(s, x, v, true)
	}
	c.obs.Admit1()
	c.obs.Resync(resyncs)
}

// DropSession unregisters the named session and returns it (with its
// current copies intact, ready for re-admission elsewhere), or nil if
// not admitted here.
func (c *Core) DropSession(name string) *Session {
	s := c.sessions[name]
	if s == nil {
		return nil
	}
	delete(c.sessions, name)
	for x := range s.wants {
		ws := c.watchers[x]
		for i := range ws {
			if ws[i].s == s {
				c.watchers[x] = append(ws[:i:i], ws[i+1:]...)
				break
			}
		}
		if len(c.watchers[x]) == 0 {
			delete(c.watchers, x)
		}
	}
	return s
}

// Session returns the admitted session with the given name, or nil.
func (c *Core) Session(name string) *Session { return c.sessions[name] }

// StaleSessions returns the admitted sessions whose last push is at
// least window old at now, sorted by name — the candidates a transport's
// watchdog migrates off a silent node. Transports that also carry
// heartbeats refresh sessions with TouchSessions instead of letting
// quiet-but-alive nodes leak their clients.
func (c *Core) StaleSessions(now sim.Time, window sim.Time) []*Session {
	var out []*Session
	for _, s := range c.sessions {
		if now-s.lastServed >= window {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// TouchSessions stamps every admitted session as served at now — the
// session-facing half of a keep-alive.
func (c *Core) TouchSessions(now sim.Time) {
	for _, s := range c.sessions {
		if now > s.lastServed {
			s.lastServed = now
		}
	}
}
