package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"d3t/internal/coherency"
	"d3t/internal/obs"
	"d3t/internal/repository"
)

// Decoder reads frames from r. It is strict — anything but a canonical
// frame is an error — and allocation-capped: the declared body length
// is bounded by MaxFrameBytes, the body buffer grows only as bytes
// actually arrive, and entry counts are validated against the bytes
// present before any slice or map is sized from them, so a hostile
// length prefix cannot allocate unboundedly.
//
// Decode reuses the decoder's body buffer and the target frame's Ups
// slice: a decoded frame (its Ups in particular) is valid until the
// next Decode call on the same decoder/frame. Item strings are interned
// per decoder, so the steady-state update/batch path stops allocating
// once a connection has seen its item universe.
type Decoder struct {
	r    io.Reader
	hdr  [headerSize]byte
	body []byte
	// items interns item names: a direct-mapped cache indexed by an
	// inline FNV-1a hash. Collisions just overwrite, so it is bounded by
	// construction and costs one hash + one compare per item — cheap
	// enough for the per-update batch path.
	items [maxInterned]string
}

// NewDecoder returns a decoder reading frames from r.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: r} }

// maxInterned sizes the per-connection item-name cache (power of two).
const maxInterned = 1 << 12

// readChunk bounds how far the body buffer grows ahead of the bytes
// actually received.
const readChunk = 64 << 10

// FrameBuffered reports whether br already holds a whole frame: the
// header and as many body bytes as it declares. Decode on a decoder
// reading from br then takes the frame from the buffer without reading
// br's source, so a caller can decode a backlog under a lock that must
// not wait on the network. It never reads itself.
func FrameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < headerSize {
		return false
	}
	hdr, _ := br.Peek(4)
	return uint64(br.Buffered()) >= headerSize+uint64(binary.LittleEndian.Uint32(hdr))
}

// Decode reads the next frame into f, replacing f's previous contents.
// A clean connection close between frames returns io.EOF verbatim; a
// close mid-frame returns io.ErrUnexpectedEOF; malformed input returns
// an error wrapping ErrVersion, ErrFrameTooLarge or ErrMalformed. After
// any error the stream is unsynchronized and must be torn down — there
// is no resynchronization scan.
func (d *Decoder) Decode(f *Frame) error {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			return err
		}
		return fmt.Errorf("wire: reading frame header: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(d.hdr[:4]))
	if n > MaxFrameBytes {
		return fmt.Errorf("wire: declared body length %d over the %d-byte cap: %w", n, MaxFrameBytes, ErrFrameTooLarge)
	}
	if v := d.hdr[4]; v != Version {
		return fmt.Errorf("wire: frame version %d, this build speaks %d: %w", v, Version, ErrVersion)
	}
	kind := Kind(d.hdr[5])
	if kind == 0 || kind > kindMax {
		return fmt.Errorf("wire: unknown frame kind %d: %w", d.hdr[5], ErrMalformed)
	}
	flags := d.hdr[6]
	if flags&^byte(flagResync|flagTrace|flagQuery) != 0 {
		return fmt.Errorf("wire: undefined flag bits %#x: %w", flags, ErrMalformed)
	}
	resync := flags&flagResync != 0
	if resync && kind != KindHello && kind != KindUpdate {
		return fmt.Errorf("wire: resync flag on a %v frame: %w", kind, ErrMalformed)
	}
	traced := flags&flagTrace != 0
	if traced && (kind != KindUpdate || resync) {
		return fmt.Errorf("wire: trace flag on a %s%v frame: %w", resyncPrefix(resync), kind, ErrMalformed)
	}
	queried := flags&flagQuery != 0
	if queried && kind != KindSubscribe {
		return fmt.Errorf("wire: query flag on a %v frame: %w", kind, ErrMalformed)
	}
	if d.hdr[7] != 0 {
		return fmt.Errorf("wire: non-zero reserved header byte %#x: %w", d.hdr[7], ErrMalformed)
	}
	if err := d.readBody(n); err != nil {
		return err
	}

	*f = Frame{Kind: kind, Resync: resync, Ups: f.Ups[:0]}
	c := cursor{b: d.body}
	switch kind {
	case KindHello:
		v, err := c.u64()
		if err != nil {
			return err
		}
		f.From = repository.ID(int64(v))
	case KindUpdate:
		raw, err := c.str()
		if err != nil {
			return err
		}
		f.Item = d.intern(raw)
		if f.Value, err = c.f64(); err != nil {
			return err
		}
		if traced {
			if f.TraceID, err = c.u64(); err != nil {
				return err
			}
			if f.TraceID == 0 {
				return fmt.Errorf("wire: traced update with zero trace id: %w", ErrMalformed)
			}
			count, err := c.u16()
			if err != nil {
				return err
			}
			if int(count)*16 > c.remaining() {
				return fmt.Errorf("wire: trace hop count %d outruns the %d body bytes: %w", count, c.remaining(), ErrMalformed)
			}
			// A fresh slice per traced frame: traces are sampled (rare) and
			// their hop lists are retained by the tracer.
			if count > 0 {
				f.Hops = make([]obs.Hop, 0, count)
			}
			for i := 0; i < int(count); i++ {
				node, err := c.u64()
				if err != nil {
					return err
				}
				at, err := c.u64()
				if err != nil {
					return err
				}
				f.Hops = append(f.Hops, obs.Hop{Node: repository.ID(int64(node)), At: int64(at)})
			}
		}
	case KindBatch:
		count, err := c.u32()
		if err != nil {
			return err
		}
		// Every entry is at least 10 bytes (empty item + value), so the
		// count is provably a lie if it outruns the bytes present —
		// checked before Ups grows toward it.
		if int64(count)*10 > int64(c.remaining()) {
			return fmt.Errorf("wire: batch count %d outruns the %d body bytes: %w", count, c.remaining(), ErrMalformed)
		}
		// The batch loop is the wire's hottest path — the fan-in side of
		// every parent push — so it walks the body with direct index
		// arithmetic rather than per-field cursor calls.
		b, off := c.b, c.off
		for i := 0; i < int(count); i++ {
			if len(b)-off < 2 {
				return c.short(2)
			}
			sl := int(binary.LittleEndian.Uint16(b[off:]))
			off += 2
			if len(b)-off < sl+8 {
				c.off = off
				return c.short(sl + 8)
			}
			item := d.intern(b[off : off+sl])
			off += sl
			v := math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
			off += 8
			f.Ups = append(f.Ups, Update{Item: item, Value: v})
		}
		c.off = off
	case KindSubscribe:
		raw, err := c.str()
		if err != nil {
			return err
		}
		f.Name = string(raw)
		count, err := c.u32()
		if err != nil {
			return err
		}
		if int64(count)*10 > int64(c.remaining()) {
			return fmt.Errorf("wire: subscribe count %d outruns the %d body bytes: %w", count, c.remaining(), ErrMalformed)
		}
		// Fresh map every time: the session registry retains it.
		f.Wants = make(map[string]coherency.Requirement, count)
		prev := ""
		for i := 0; i < int(count); i++ {
			raw, err := c.str()
			if err != nil {
				return err
			}
			item := string(raw)
			if i > 0 && item <= prev {
				return fmt.Errorf("wire: subscribe entries out of order (%q after %q): %w", item, prev, ErrMalformed)
			}
			prev = item
			tol, err := c.f64()
			if err != nil {
				return err
			}
			f.Wants[item] = coherency.Requirement(tol)
		}
		if queried {
			raw, err := c.str()
			if err != nil {
				return err
			}
			if len(raw) == 0 {
				// Canonical form: an empty spec encodes as no flag at all.
				return fmt.Errorf("wire: query flag with empty spec: %w", ErrMalformed)
			}
			f.Query = string(raw)
		}
	case KindAccept:
		// Empty body.
	case KindRedirect:
		count, err := c.u16()
		if err != nil {
			return err
		}
		if int(count)*2 > c.remaining() {
			return fmt.Errorf("wire: redirect count %d outruns the %d body bytes: %w", count, c.remaining(), ErrMalformed)
		}
		if count > 0 {
			f.Addrs = make([]string, 0, count)
		}
		for i := 0; i < int(count); i++ {
			raw, err := c.str()
			if err != nil {
				return err
			}
			f.Addrs = append(f.Addrs, string(raw))
		}
	}
	if c.remaining() != 0 {
		return fmt.Errorf("wire: %d trailing bytes after %v body: %w", c.remaining(), kind, ErrMalformed)
	}
	return nil
}

// readBody fills d.body with exactly n body bytes. The buffer grows in
// readChunk steps as bytes actually arrive, so a stream that lies about
// its length allocates at most ~2× the bytes it really sent, not the
// declared size.
func (d *Decoder) readBody(n int) error {
	if cap(d.body) >= n {
		d.body = d.body[:n]
		if _, err := io.ReadFull(d.r, d.body); err != nil {
			return truncated(err)
		}
		return nil
	}
	d.body = d.body[:0]
	got := 0
	for got < n {
		chunk := n - got
		if chunk > readChunk {
			chunk = readChunk
		}
		if cap(d.body) < got+chunk {
			grown := make([]byte, got+chunk, 2*(got+chunk))
			copy(grown, d.body[:got])
			d.body = grown
		}
		d.body = d.body[:got+chunk]
		if _, err := io.ReadFull(d.r, d.body[got:]); err != nil {
			return truncated(err)
		}
		got += chunk
	}
	return nil
}

// truncated maps a clean EOF inside a promised body to ErrUnexpectedEOF:
// the header announced bytes that never came.
func truncated(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// intern returns a stable string for the item bytes. On a hit the
// string(b) comparison does not allocate (the compiler elides the
// conversion), so a connection's steady-state item universe decodes
// with zero allocations; a miss allocates the one string the caller
// needed anyway.
func (d *Decoder) intern(b []byte) string {
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	slot := &d.items[h&(maxInterned-1)]
	if *slot == string(b) {
		return *slot
	}
	s := string(b)
	*slot = s
	return s
}

// cursor walks a frame body with bounds-checked field reads.
type cursor struct {
	b   []byte
	off int
}

func (c *cursor) remaining() int { return len(c.b) - c.off }

// take's error path lives in a separate cold function so take (and the
// field readers built on it) stay under the inlining budget — the
// per-field call overhead is what the batch decode loop spends its time
// on otherwise.
func (c *cursor) take(n int) ([]byte, error) {
	if n > c.remaining() {
		return nil, c.short(n)
	}
	s := c.b[c.off : c.off+n]
	c.off += n
	return s, nil
}

func (c *cursor) short(n int) error {
	return fmt.Errorf("wire: field of %d bytes, %d left in body: %w", n, c.remaining(), ErrMalformed)
}

func (c *cursor) u16() (uint16, error) {
	s, err := c.take(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(s), nil
}

func (c *cursor) u32() (uint32, error) {
	s, err := c.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(s), nil
}

func (c *cursor) u64() (uint64, error) {
	s, err := c.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(s), nil
}

func (c *cursor) f64() (float64, error) {
	v, err := c.u64()
	return math.Float64frombits(v), err
}

// str reads a length-prefixed string field and returns the raw bytes,
// aliasing the decoder's body buffer — callers copy (or intern) before
// the next Decode.
func (c *cursor) str() ([]byte, error) {
	n, err := c.u16()
	if err != nil {
		return nil, err
	}
	return c.take(int(n))
}
