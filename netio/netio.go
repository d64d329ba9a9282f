// Package netio exposes the TCP deployment runtime: every overlay node is
// a network server pushing filtered updates to its dependents over TCP
// using the d3t/internal/wire binary frame format. See d3t/internal/netio
// for the implementation.
package netio

import (
	d3t "d3t"
	inetio "d3t/internal/netio"
)

type (
	// Node is one running dissemination server.
	Node = inetio.Node
	// NodeConfig describes a node: its serving set, dependents, listen
	// address, parents and client-session policy (cap, redirect peers).
	NodeConfig = inetio.NodeConfig
	// Cluster runs a whole overlay on localhost.
	Cluster = inetio.Cluster
	// Client is a remote client session subscribed to a node over TCP:
	// it receives only the wire-encoded updates that exceed its own
	// tolerances, follows cap redirects, and migrates to the next known
	// address when the serving node dies.
	Client = inetio.Client
	// ClientUpdate is one value pushed to a remote client session.
	ClientUpdate = inetio.ClientUpdate
	// Update is one (item, value) pair of a Node.PublishBatch batch.
	Update = inetio.Update
	// ClusterOptions configures a cluster start's observability: the
	// obs tree, the update-trace sampling rate, and the HTTP metrics
	// address. The zero value disables all three (StartCluster's
	// behavior).
	ClusterOptions = inetio.ClusterOptions
)

// Start launches a single node.
func Start(cfg NodeConfig) (*Node, error) { return inetio.Start(cfg) }

// Subscribe opens a remote client session against the given node
// addresses: the first that accepts (following redirects) serves it, the
// rest are failover candidates.
func Subscribe(name string, wants map[string]d3t.Requirement, addrs ...string) (*Client, error) {
	return inetio.Subscribe(name, wants, addrs...)
}

// StartCluster brings up every node of the overlay on localhost, parents
// before children, seeded with the initial values.
func StartCluster(o *d3t.Overlay, initial map[string]float64) (*Cluster, error) {
	return inetio.StartCluster(o, initial)
}

// StartClusterWith is StartCluster with observability armed: per-node
// counters and latency histograms in opts.Obs, sampled update traces
// every opts.TraceEvery publishes, and a cluster-wide HTTP metrics
// endpoint on opts.MetricsAddr.
func StartClusterWith(o *d3t.Overlay, initial map[string]float64, opts ClusterOptions) (*Cluster, error) {
	return inetio.StartClusterWith(o, initial, opts)
}
