package netio

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"d3t/internal/coherency"
	"d3t/internal/query"
	"d3t/internal/sim"
	"d3t/internal/wire"
)

// ClientUpdate is one value pushed to a remote client session.
type ClientUpdate struct {
	Item  string
	Value float64
	// Resync marks a catch-up push received on admission or after a
	// migration, as opposed to a tolerance-violating live update.
	Resync bool
}

// Client is a remote client session: it subscribes to a dissemination
// node over TCP with its own per-item tolerances and receives the
// wire-encoded updates that violate them. When the serving node dies (the
// connection drops) the client re-subscribes to the next known address —
// session migration, detected the way everything is detected in the TCP
// runtime: by connection error. Redirect answers (session cap reached,
// item not served stringently enough) are followed transparently.
type Client struct {
	name  string
	wants map[string]coherency.Requirement
	ch    chan ClientUpdate
	// qspec rides every subscribe frame when the session is a
	// repository-evaluated query (SubscribeQuery, PlaceRepo): the serving
	// node evaluates and pushes only result changes. Empty otherwise.
	qspec string
	// qeval is the client-local evaluator of a client-placed query
	// (SubscribeQuery, PlaceClient): raw inputs arrive and are recombined
	// here, on the client's own query clock (qstart). Nil otherwise.
	qeval  *query.Eval
	qstart time.Time

	mu         sync.Mutex
	conn       net.Conn
	addrs      []string // known candidate endpoints, admission order
	current    string   // address currently serving the session
	values     map[string]float64
	delivered  uint64
	dropped    uint64
	redirects  int
	migrations int
	closed     bool

	wg sync.WaitGroup
}

// Subscribe opens a client session against the given node addresses: the
// first that accepts (following redirects) serves it; the rest are
// failover candidates. The returned client's Updates channel carries the
// filtered pushes.
func Subscribe(name string, wants map[string]coherency.Requirement, addrs ...string) (*Client, error) {
	return subscribe(name, wants, "", nil, addrs)
}

// SubscribeQuery opens a derived-data query session (internal/query)
// against the given node addresses. With the default repository-side
// placement the subscribe frame carries the query spec — the serving
// node evaluates and the Updates channel delivers only result changes,
// under the query's result pseudo-item (Query.ResultItem). With
// PlaceClient the session is a plain subscription to the inputs at their
// allocated tolerances and the client recombines locally: Updates
// carries the raw inputs and QueryResult/QueryCounts expose the local
// evaluator. Both placements see the same filtered input stream, so
// their evaluation counts agree; they trade last-hop message cost.
func SubscribeQuery(q query.Query, addrs ...string) (*Client, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if q.Name == "" {
		return nil, fmt.Errorf("netio: query session needs a name")
	}
	if q.Placement == query.PlaceClient {
		return subscribe(q.Name, q.Wants(), "", query.NewEval(q), addrs)
	}
	return subscribe(q.Name, q.Wants(), q.String(), nil, addrs)
}

func subscribe(name string, wants map[string]coherency.Requirement, qspec string, qeval *query.Eval, addrs []string) (*Client, error) {
	if name == "" || len(wants) == 0 {
		return nil, fmt.Errorf("netio: subscription needs a name and a watch list")
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("netio: subscription needs at least one node address")
	}
	c := &Client{
		name:   name,
		wants:  wants,
		ch:     make(chan ClientUpdate, 256),
		qspec:  qspec,
		qeval:  qeval,
		qstart: time.Now(),
		addrs:  append([]string(nil), addrs...),
		values: make(map[string]float64),
	}
	conn, dec, err := c.connect("")
	if err != nil {
		return nil, err
	}
	c.conn = conn
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.readLoop(conn, dec)
	}()
	return c, nil
}

// Updates returns the session's delivery channel. A slow consumer does
// not block the connection: updates that find the channel full are
// dropped and counted.
func (c *Client) Updates() <-chan ClientUpdate { return c.ch }

// Value returns the client's current copy of item.
func (c *Client) Value(item string) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.values[item]
	return v, ok
}

// Serving returns the address currently serving the session.
func (c *Client) Serving() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.current
}

// Delivered, Redirects and Migrations report the session's counters.
func (c *Client) Delivered() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.delivered
}
func (c *Client) Redirects() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.redirects
}
func (c *Client) Migrations() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.migrations
}

// QueryResult returns the session's current copy of the query result:
// the local evaluator's result for a client-placed query, the last
// received result push for a repository-placed one. It reports false for
// plain (non-query) sessions and before the first defined result.
func (c *Client) QueryResult() (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.qeval != nil {
		return c.qeval.Result()
	}
	if c.qspec != "" {
		v, ok := c.values[(&query.Query{Name: c.name}).ResultItem()]
		return v, ok
	}
	return 0, false
}

// QueryCounts reports the client-local evaluator's counters (zeros for a
// repository-placed query, whose counts live on the serving node — see
// Node.QueryCounts — and for plain sessions).
func (c *Client) QueryCounts() (evals, recomputes uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.qeval != nil {
		return c.qeval.Evals(), c.qeval.Recomputes()
	}
	return 0, 0
}

// Close ends the session, waits for its reader, and closes the Updates
// channel so ranging consumers terminate.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	conn := c.conn
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	c.wg.Wait()
	close(c.ch)
}

// connect walks the known addresses (skipping the one that just died)
// and returns the first accepted subscription, following redirects —
// redirect-offered addresses join the candidate list.
func (c *Client) connect(skip string) (net.Conn, *wire.Decoder, error) {
	tried := make(map[string]bool)
	for i := 0; ; i++ {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, nil, fmt.Errorf("netio: session %q closed", c.name)
		}
		var addr string
		for _, a := range c.addrs {
			if a != skip && !tried[a] {
				addr = a
				break
			}
		}
		c.mu.Unlock()
		if addr == "" {
			return nil, nil, fmt.Errorf("netio: no node accepted session %q", c.name)
		}
		tried[addr] = true
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			continue
		}
		if wire.NewEncoder(conn).Encode(&wire.Frame{Kind: wire.KindSubscribe, Name: c.name, Wants: c.wants, Query: c.qspec}) != nil {
			conn.Close()
			continue
		}
		dec := wire.NewDecoder(bufio.NewReaderSize(conn, readBuf))
		var answer wire.Frame
		if dec.Decode(&answer) != nil {
			conn.Close()
			continue
		}
		switch answer.Kind {
		case wire.KindAccept:
			c.mu.Lock()
			c.current = addr
			c.mu.Unlock()
			return conn, dec, nil
		case wire.KindRedirect:
			conn.Close()
			c.mu.Lock()
			c.redirects++
			known := make(map[string]bool, len(c.addrs))
			for _, a := range c.addrs {
				known[a] = true
			}
			for _, a := range answer.Addrs {
				if !known[a] {
					c.addrs = append(c.addrs, a)
				}
			}
			c.mu.Unlock()
		default:
			conn.Close()
		}
	}
}

// readLoop applies pushes; on connection death — or a corrupt stream
// failing the strict decoder — it migrates the session to the next
// candidate address, with backoff between full sweeps.
func (c *Client) readLoop(conn net.Conn, dec *wire.Decoder) {
	backoff := 50 * time.Millisecond
	var f wire.Frame
	for {
		if err := dec.Decode(&f); err != nil {
			conn.Close()
			c.mu.Lock()
			closed := c.closed
			dead := c.current
			c.mu.Unlock()
			if closed {
				return
			}
			next, nextDec, err := c.connect(dead)
			if err != nil {
				c.mu.Lock()
				closed = c.closed
				c.mu.Unlock()
				if closed {
					return
				}
				time.Sleep(backoff)
				if backoff < 2*time.Second {
					backoff *= 2
				}
				// Retry the full candidate list, the dead node included —
				// it may have restarted.
				next, nextDec, err = c.connect("")
				if err != nil {
					continue
				}
			}
			c.mu.Lock()
			c.conn = next
			c.migrations++
			if c.closed {
				c.mu.Unlock()
				next.Close()
				return
			}
			c.mu.Unlock()
			conn, dec = next, nextDec
			continue
		}
		backoff = 50 * time.Millisecond
		if f.Kind != wire.KindUpdate {
			continue
		}
		c.mu.Lock()
		c.values[f.Item] = f.Value
		c.delivered++
		if c.qeval != nil {
			// Client-side placement: recombine the raw input locally, on
			// the client's own query clock. Counts depend only on the
			// delivery sequence, not on the tick width.
			c.qeval.Observe(f.Item, f.Value, int64(sim.Time(time.Since(c.qstart)/time.Microsecond)/sim.Second))
		}
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return
		}
		select {
		case c.ch <- ClientUpdate{Item: f.Item, Value: f.Value, Resync: f.Resync}:
		default:
			c.mu.Lock()
			c.dropped++
			c.mu.Unlock()
		}
	}
}
