// Package dissemination implements the update dissemination algorithms of
// Section 5 of the paper — the distributed repository-based approach
// (Eqs. 3 and 7), the centralized source-based approach, the naive Eq.3-
// only filter (which exhibits the missed-update problem of Figure 4), and
// the unfiltered push-everything baseline of Figure 8 — together with the
// discrete-event runner that drives them over an overlay and a trace set
// and measures fidelity, message counts and check counts.
//
// The package also provides the pull-based alternatives the paper lists as
// future work (static TTR, adaptive TTR, and leases); see pull.go.
package dissemination

import (
	"d3t/internal/coherency"
	"d3t/internal/repository"
	"d3t/internal/tree"
)

// Forward is one outgoing copy of an update: the dependent to send to and
// the coherency tag it carries (used only by the centralized algorithm;
// zero otherwise).
type Forward struct {
	To  repository.ID
	Tag coherency.Requirement
}

// Protocol is a push dissemination algorithm. Implementations are stateful
// (they track last-sent values per edge or per tolerance) and are not safe
// for concurrent use; each simulation run owns one instance.
type Protocol interface {
	// Name identifies the protocol in experiment output.
	Name() string
	// Init prepares protocol state for an overlay whose nodes all hold
	// the given initial values.
	Init(o *tree.Overlay, initial map[string]float64)
	// AtSource reports which direct dependents must receive the new value
	// v of item x, and how many filtering checks the source performed.
	//
	// The returned slice is valid only until the next call on the same
	// protocol — implementations may reuse one backing buffer across
	// calls (the ones in this package all do, keeping the hot path
	// allocation-free).
	// Callers must consume or copy it before deciding the next update.
	AtSource(x string, v float64) (fwd []Forward, checks int)
	// AtRepo reports which of node's dependents must receive the update
	// (x, v, tag) that node just received, and how many checks node
	// performed. The returned slice has the same single-call lifetime as
	// AtSource's.
	AtRepo(node *repository.Repository, x string, v float64, tag coherency.Requirement) (fwd []Forward, checks int)
}

// The per-(parent, dependent, item) last-pushed-value state behind Eqs. 3
// and 7 lives in the transport-agnostic repository core (internal/node):
// Distributed owns one node.Core per overlay node and translates its
// decisions into Forward lists.
