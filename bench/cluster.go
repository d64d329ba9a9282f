package main

import (
	"fmt"
	"time"

	"d3t"
	"d3t/internal/wire"
	"d3t/live"
	"d3t/netio"
	"d3t/obs"
)

// system is the cluster under test as the workloads drive it. Both
// transports sit behind it so one phase runner serves all three
// transport workloads; each method is a direct call into the public
// cluster API, and the spans a traced run records are taken around them.
type system interface {
	// publish injects one source pass: a single update, or a batch.
	publish(items []string, ups []update) error
	subscribe(spec sessionSpec) (clientSession, error)
	decisions(id d3t.RepositoryID) map[string]d3t.NodeDecisions
	value(id d3t.RepositoryID, item string) (float64, bool)
	// conns is the number of overlay push connections (0 over channels).
	conns() int
	close() error
}

// clientSession is one subscribed client. drain delivers every push to
// fn until the session is closed; dropped is how many pushes the
// transport discarded because the client's channel was full.
type clientSession interface {
	drain(fn func(item string, value float64, resync bool))
	dropped(received uint64) uint64
	close()
}

// ---- live: goroutines and channels ----

type liveSystem struct{ c *live.Cluster }

func startLive(w *world) (system, error) {
	o, err := w.overlay()
	if err != nil {
		return nil, err
	}
	c := live.NewCluster(o, live.Options{})
	for item, v := range w.initial {
		c.Seed(item, v)
	}
	c.Start()
	return liveSystem{c}, nil
}

func (s liveSystem) publish(items []string, ups []update) error {
	for _, u := range ups {
		if !s.c.Publish(items[u.item], u.value) {
			return fmt.Errorf("live: publish on a stopped cluster")
		}
	}
	return nil
}

func (s liveSystem) subscribe(spec sessionSpec) (clientSession, error) {
	sess, err := s.c.Subscribe(spec.name, spec.wants, spec.repo)
	if err != nil {
		return nil, err
	}
	if sess.Repo() != spec.repo {
		sess.Close()
		return nil, fmt.Errorf("live: session %s placed on %v, want %v", spec.name, sess.Repo(), spec.repo)
	}
	return liveSession{sess}, nil
}

func (s liveSystem) decisions(id d3t.RepositoryID) map[string]d3t.NodeDecisions {
	return s.c.Decisions(id)
}
func (s liveSystem) value(id d3t.RepositoryID, item string) (float64, bool) {
	return s.c.Value(id, item)
}
func (s liveSystem) conns() int   { return 0 }
func (s liveSystem) close() error { s.c.Stop(); return nil }

type liveSession struct{ s *live.Session }

func (s liveSession) drain(fn func(string, float64, bool)) {
	for u := range s.s.Updates() {
		fn(u.Item, u.Value, u.Resync)
	}
}
func (s liveSession) dropped(uint64) uint64 { return s.s.Dropped() }
func (s liveSession) close()                { s.s.Close() }

// ---- netio: loopback TCP ----

// netioSystem is a localhost TCP cluster. The plain one comes from
// netio.StartCluster. The durable one is wired node by node, because the
// facade has no cluster start that takes durability; see startDurable.
type netioSystem struct {
	nodes []*netio.Node
	batch []wire.Update
	// configs and tree are kept by the durable variant so it can restart
	// over the same directories and read its counters.
	configs []netio.NodeConfig
	tree    *obs.Tree
}

func startNetio(w *world) (system, error) {
	o, err := w.overlay()
	if err != nil {
		return nil, err
	}
	c, err := netio.StartCluster(o, w.initial)
	if err != nil {
		return nil, err
	}
	return &netioSystem{nodes: c.Nodes}, nil
}

// startDurable brings up the overlay with a write-ahead log and an
// observer on every node. It mirrors netio.StartClusterWith — level
// order, parents' addresses handed to children, a wait for every push
// connection — through netio.Start, which is the only entry point that
// accepts NodeConfig.Durability.
func startDurable(w *world, dir string) (system, error) {
	o, err := w.overlay()
	if err != nil {
		return nil, err
	}
	s := &netioSystem{tree: obs.NewTree(), configs: make([]netio.NodeConfig, len(o.Nodes))}
	for _, r := range o.Nodes {
		cfg := netio.NodeConfig{
			ID:         r.ID,
			Serving:    r.Serving,
			Children:   make(map[d3t.RepositoryID]map[string]d3t.Requirement),
			Initial:    make(map[string]float64),
			Obs:        s.tree.Node(r.ID),
			Durability: &d3t.WALOptions{Dir: dir},
		}
		for item, deps := range r.Dependents {
			for _, dep := range deps {
				c, ok := o.Node(dep).ServingTolerance(item)
				if !ok {
					return nil, fmt.Errorf("durable: dependent %v lacks a tolerance for %s", dep, item)
				}
				if cfg.Children[dep] == nil {
					cfg.Children[dep] = make(map[string]d3t.Requirement)
				}
				cfg.Children[dep][item] = c
			}
		}
		for item, v := range w.initial {
			if _, serves := r.ServingTolerance(item); serves {
				cfg.Initial[item] = v
			}
		}
		s.configs[r.ID] = cfg
	}
	if err := s.start(o); err != nil {
		return nil, err
	}
	return s, nil
}

// start launches every configured node, parents first, and waits until
// each has all its children connected, so the first publish cannot race
// a hello handshake.
func (s *netioSystem) start(o *d3t.Overlay) error {
	s.nodes = make([]*netio.Node, len(s.configs))
	for _, r := range levelOrder(o) {
		cfg := s.configs[r.ID]
		cfg.Parents = nil
		for _, pid := range o.ParentsOf(r.ID) {
			cfg.Parents = append(cfg.Parents, s.nodes[pid].Addr())
		}
		n, err := netio.Start(cfg)
		if err != nil {
			s.close()
			return err
		}
		s.nodes[r.ID] = n
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range s.nodes {
		for n.ConnectedChildren() < n.ExpectedChildren() {
			if time.Now().After(deadline) {
				s.close()
				return fmt.Errorf("durable: %v has %d of %d children connected after 10s",
					n.ID(), n.ConnectedChildren(), n.ExpectedChildren())
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

func (s *netioSystem) publish(items []string, ups []update) error {
	if len(ups) == 1 {
		return s.nodes[d3t.SourceID].Publish(items[ups[0].item], ups[0].value)
	}
	s.batch = s.batch[:0]
	for _, u := range ups {
		s.batch = append(s.batch, wire.Update{Item: items[u.item], Value: u.value})
	}
	return s.nodes[d3t.SourceID].PublishBatch(s.batch)
}

func (s *netioSystem) subscribe(spec sessionSpec) (clientSession, error) {
	addr := s.nodes[spec.repo].Addr()
	c, err := netio.Subscribe(spec.name, spec.wants, addr)
	if err != nil {
		return nil, err
	}
	if c.Serving() != addr || c.Redirects() != 0 {
		c.Close()
		return nil, fmt.Errorf("netio: session %s redirected away from %v", spec.name, spec.repo)
	}
	return netioSession{c}, nil
}

func (s *netioSystem) decisions(id d3t.RepositoryID) map[string]d3t.NodeDecisions {
	return s.nodes[id].Decisions()
}
func (s *netioSystem) value(id d3t.RepositoryID, item string) (float64, bool) {
	return s.nodes[id].Value(item)
}

func (s *netioSystem) conns() int {
	n := 0
	for _, node := range s.nodes {
		n += node.ConnectedChildren()
	}
	return n
}

// close stops every started node and reports the first durability
// failure any of them latched.
func (s *netioSystem) close() error {
	var first error
	for _, n := range s.nodes {
		if n == nil {
			continue
		}
		n.Close()
		if err := n.DurabilityErr(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

type netioSession struct{ c *netio.Client }

func (s netioSession) drain(fn func(string, float64, bool)) {
	for u := range s.c.Updates() {
		fn(u.Item, u.Value, u.Resync)
	}
}

// dropped is what the client counted as delivered off the socket minus
// what came out of its channel: the facade does not export the client's
// own drop counter.
func (s netioSession) dropped(received uint64) uint64 {
	if d := s.c.Delivered(); d > received {
		return d - received
	}
	return 0
}
func (s netioSession) close() { s.c.Close() }
