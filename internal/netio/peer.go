package netio

import (
	"errors"
	"net"
	"sync"

	"d3t/internal/wire"
)

// maxPending bounds the frame bytes one peer holds unsent. An append past
// it waits until the writer drains: the backpressure a full socket used
// to apply to the appending goroutine directly. Nothing is dropped or
// conflated.
const maxPending = 1 << 20

// readBuf sizes the buffered reader under every socket decoder, so a
// backlog of frames decodes from one read.
const readBuf = 64 << 10

// errPeerStopped is what a stopped peer latches.
var errPeerStopped = errors.New("netio: connection closed")

// peer is the write half of one outbound connection: a dependent's push
// connection or an admitted client session. The transport appends frames
// to pending under Node.mu; the peer's writer goroutine takes everything
// pending and sends it with one conn.Write, outside every lock. Frames
// are concatenated, never merged, so the stream is byte-identical to one
// write per frame.
type peer struct {
	conn net.Conn

	mu sync.Mutex
	// cond wakes the writer when frames are pending or err is set, and an
	// appender waiting for room when the writer takes the buffer or err is
	// set.
	cond    sync.Cond
	pending []byte
	// err ends the peer: the first write error (the writer closed the
	// connection) or errPeerStopped. Every later send reports it.
	err error

	// pass and group are transport.flush's grouping scratch for a
	// dependent's peer, guarded by Node.mu.
	pass  uint64
	group int
}

func newPeer(conn net.Conn) *peer {
	p := &peer{conn: conn}
	p.cond.L = &p.mu
	return p
}

// send appends f to the pending stream, waiting while maxPending bytes
// are already queued. It returns the peer's latched error, if any.
func (p *peer) send(f *wire.Frame) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.pending) >= maxPending && p.err == nil {
		p.cond.Wait()
	}
	if p.err != nil {
		return p.err
	}
	n := len(p.pending)
	b, err := wire.AppendFrame(p.pending, f)
	if err != nil {
		p.pending = b[:n]
		return err
	}
	p.pending = b
	if n == 0 {
		p.cond.Broadcast() // the writer waits only on an empty buffer
	}
	return nil
}

// run is the writer goroutine. It swaps the pending buffer for the spare,
// sends the whole backlog in one write with the lock released, and keeps
// the sent buffer as the next spare. On a write error it latches the
// error and closes the connection, so the reader unregisters the peer.
// It exits once err is set.
func (p *peer) run() {
	var spare []byte
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		for len(p.pending) == 0 && p.err == nil {
			p.cond.Wait()
		}
		if p.err != nil {
			return
		}
		out := p.pending
		p.pending = spare[:0]
		p.cond.Broadcast() // room for an appender waiting on the bound
		p.mu.Unlock()
		_, err := p.conn.Write(out)
		p.mu.Lock()
		spare = out
		if err != nil && p.err == nil {
			p.err = err
			p.conn.Close()
			p.cond.Broadcast()
		}
	}
}

// stop ends the writer. The connection's reader calls it after
// unregistering the peer, so no append can follow.
func (p *peer) stop() {
	p.mu.Lock()
	if p.err == nil {
		p.err = errPeerStopped
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}
