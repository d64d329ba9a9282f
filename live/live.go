// Package live exposes the real-time goroutine runtime: every relay is a
// goroutine, the source applies publishes in the caller, push connections
// are channels, and the distributed dissemination algorithm (Eqs. 3 and 7
// of the paper) filters updates in real time. See d3t/internal/live for
// the implementation.
package live

import (
	d3t "d3t"
	ilive "d3t/internal/live"
)

type (
	// Options configures a live cluster (delays, observation hook,
	// failure detection, session cap).
	Options = ilive.Options
	// Cluster is a running set of node goroutines.
	Cluster = ilive.Cluster
	// Session is one client's channel subscription to a cluster
	// (Cluster.Subscribe): admission under the session cap with overflow
	// redirect, per-client filtered delivery, and silence-driven
	// migration to another repository when the serving one dies.
	Session = ilive.Session
	// ClientUpdate is one value pushed to a session.
	ClientUpdate = ilive.ClientUpdate
)

// NewCluster builds (but does not start) a live cluster over the overlay.
func NewCluster(o *d3t.Overlay, opts Options) *Cluster {
	return ilive.NewCluster(o, opts)
}

// NewDurableCluster builds (but does not start) a live cluster whose
// per-shard cores are backed by write-ahead logs under
// opts.Durability.Dir, recovering whatever state those directories
// already hold — a cluster rebuilt over the same directories resumes
// with its exact pre-crash values and edge filter state instead of
// rejoining cold.
func NewDurableCluster(o *d3t.Overlay, opts Options) (*Cluster, error) {
	return ilive.NewDurableCluster(o, opts)
}
