package serve

import (
	"d3t/internal/repository"
	"d3t/internal/sim"
)

// Session is a read-only view of one named session of the store — a
// client admitted by AttachAll or a query's input session.
type Session struct {
	f *Fleet
	n named
}

// Session returns the view of the named session, and false when the
// fleet holds none by that name.
func (f *Fleet) Session(name string) (Session, bool) {
	n, ok := f.byName[name]
	return Session{f: f, n: n}, ok
}

// Repo returns the repository currently serving the session, or
// repository.NoID while detached (departed or orphaned).
func (s Session) Repo() repository.ID {
	shi, i := split(s.n.h)
	return repository.ID(s.f.shards[shi].repo[i])
}

// Redirected reports whether admission placed the session on other than
// its nearest repository.
func (s Session) Redirected() bool { return s.n.redirected }

// Value returns the session's current copy of item, and false when the
// session does not watch it.
func (s Session) Value(item string) (float64, bool) {
	shi, i := split(s.n.h)
	sh := &s.f.shards[shi]
	for wi, end := sh.watches(i); wi < end; wi++ {
		if s.f.itemName[sh.wItem[wi]] == item {
			return sh.wHave[wi], true
		}
	}
	return 0, false
}

// Fidelity returns the client-observed fidelity up to now (see
// Stats.MeanFidelity; 1 for a session that never attached).
func (s Session) Fidelity(now sim.Time) float64 { return s.f.fidelity(s.n.h, now) }
