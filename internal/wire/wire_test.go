package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strconv"
	"testing"

	"d3t/internal/coherency"
)

// header hand-builds an 8-byte frame header for malformed-input tests.
func header(n uint32, version, kind, flags, reserved byte) []byte {
	h := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(h, n)
	h[4], h[5], h[6], h[7] = version, kind, flags, reserved
	return h
}

func decodeBytes(b []byte) (Frame, error) {
	var f Frame
	err := NewDecoder(bytes.NewReader(b)).Decode(&f)
	return f, err
}

func TestDecodeCleanEOF(t *testing.T) {
	if _, err := decodeBytes(nil); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
}

func TestDecodeTruncatedHeader(t *testing.T) {
	if _, err := decodeBytes([]byte{1, 2, 3}); err != io.ErrUnexpectedEOF {
		t.Fatalf("3-byte stream: %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestDecodeTruncatedBody(t *testing.T) {
	b := append(header(100, Version, byte(KindUpdate), 0, 0), make([]byte, 10)...)
	if _, err := decodeBytes(b); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated body: %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestDecodeOversizedPrefix is the hard cap: a length prefix over
// MaxFrameBytes must be rejected up front — before any body allocation
// or read — so a hostile 4 GiB announcement costs nothing.
func TestDecodeOversizedPrefix(t *testing.T) {
	b := header(0xffffffff, Version, byte(KindBatch), 0, 0)
	if _, err := decodeBytes(b); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized prefix: %v, want ErrFrameTooLarge", err)
	}
	// Just over the cap trips too; the cap itself is the last legal size.
	b = header(MaxFrameBytes+1, Version, byte(KindBatch), 0, 0)
	if _, err := decodeBytes(b); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("cap+1 prefix: %v, want ErrFrameTooLarge", err)
	}
}

func TestDecodeUnknownKind(t *testing.T) {
	for _, k := range []byte{0, byte(kindMax) + 1, 0x7f} {
		b := header(0, Version, k, 0, 0)
		if _, err := decodeBytes(b); !errors.Is(err, ErrMalformed) {
			t.Errorf("kind %d: %v, want ErrMalformed", k, err)
		}
	}
}

func TestDecodeUndefinedFlagBits(t *testing.T) {
	b := header(0, Version, byte(KindAccept), 0x02, 0)
	if _, err := decodeBytes(b); !errors.Is(err, ErrMalformed) {
		t.Fatalf("flag bit 1: %v, want ErrMalformed", err)
	}
}

func TestDecodeResyncOnWrongKind(t *testing.T) {
	for _, k := range []Kind{KindSubscribe, KindAccept, KindRedirect, KindBatch} {
		b := header(0, Version, byte(k), flagResync, 0)
		if _, err := decodeBytes(b); !errors.Is(err, ErrMalformed) {
			t.Errorf("resync on %v: %v, want ErrMalformed", k, err)
		}
	}
}

func TestDecodeReservedByte(t *testing.T) {
	b := header(0, Version, byte(KindAccept), 0, 1)
	if _, err := decodeBytes(b); !errors.Is(err, ErrMalformed) {
		t.Fatalf("reserved byte: %v, want ErrMalformed", err)
	}
}

func TestDecodeTrailingBodyBytes(t *testing.T) {
	b := append(header(1, Version, byte(KindAccept), 0, 0), 0x00)
	if _, err := decodeBytes(b); !errors.Is(err, ErrMalformed) {
		t.Fatalf("trailing byte: %v, want ErrMalformed", err)
	}
}

// TestDecodeCountLies: an entry count that outruns the body's bytes is
// rejected before any slice or map is sized from it — the declared
// count can never drive an allocation the received bytes don't back.
func TestDecodeCountLies(t *testing.T) {
	batch := header(4, Version, byte(KindBatch), 0, 0)
	batch = append(batch, 0xff, 0xff, 0xff, 0x7f) // count 2^31-1, empty body
	if _, err := decodeBytes(batch); !errors.Is(err, ErrMalformed) {
		t.Fatalf("batch count lie: %v, want ErrMalformed", err)
	}

	sub := header(8, Version, byte(KindSubscribe), 0, 0)
	sub = append(sub, 0, 0)                   // empty name
	sub = append(sub, 0xff, 0xff, 0xff, 0x7f) // wants count 2^31-1
	sub = append(sub, 0, 0)                   // two stray bytes
	if _, err := decodeBytes(sub); !errors.Is(err, ErrMalformed) {
		t.Fatalf("subscribe count lie: %v, want ErrMalformed", err)
	}

	redir := header(2, Version, byte(KindRedirect), 0, 0)
	redir = append(redir, 0xff, 0xff) // count 65535, empty body
	if _, err := decodeBytes(redir); !errors.Is(err, ErrMalformed) {
		t.Fatalf("redirect count lie: %v, want ErrMalformed", err)
	}
}

func TestDecodeSubscribeOutOfOrder(t *testing.T) {
	// Hand-build a subscribe with entries ("b", "a"): decodable field by
	// field but non-canonical, so the strict decoder must reject it.
	body := []byte{1, 0, 'n'}                        // name "n"
	body = binary.LittleEndian.AppendUint32(body, 2) // count
	body = append(body, 1, 0, 'b', 0, 0, 0, 0, 0, 0, 0, 0)
	body = append(body, 1, 0, 'a', 0, 0, 0, 0, 0, 0, 0, 0)
	b := append(header(uint32(len(body)), Version, byte(KindSubscribe), 0, 0), body...)
	if _, err := decodeBytes(b); !errors.Is(err, ErrMalformed) {
		t.Fatalf("out-of-order subscribe: %v, want ErrMalformed", err)
	}
	// Duplicate entries are out of order by definition (not strictly
	// increasing) and rejected the same way.
	body = []byte{1, 0, 'n'}
	body = binary.LittleEndian.AppendUint32(body, 2)
	body = append(body, 1, 0, 'a', 0, 0, 0, 0, 0, 0, 0, 0)
	body = append(body, 1, 0, 'a', 0, 0, 0, 0, 0, 0, 0, 0)
	b = append(header(uint32(len(body)), Version, byte(KindSubscribe), 0, 0), body...)
	if _, err := decodeBytes(b); !errors.Is(err, ErrMalformed) {
		t.Fatalf("duplicate subscribe entry: %v, want ErrMalformed", err)
	}
}

func TestEncodeRejectsInvalidFrames(t *testing.T) {
	big := string(make([]byte, 1<<17))
	cases := []Frame{
		{Kind: KindBatch, Resync: true},
		{Kind: KindAccept, Resync: true},
		{Kind: Kind(99)},
		{Kind: KindUpdate, Item: big},
		{Kind: KindSubscribe, Name: big},
		{Kind: KindRedirect, Addrs: []string{big}},
	}
	for i, f := range cases {
		if _, err := AppendFrame(nil, &f); !errors.Is(err, ErrMalformed) {
			t.Errorf("case %d: %v, want ErrMalformed", i, err)
		}
	}
}

// TestDecoderStream drives several frames through one decoder — the
// long-lived-connection shape — checking that per-frame state fully
// resets and the reused Ups buffer never leaks entries across frames.
func TestDecoderStream(t *testing.T) {
	frames := []Frame{
		{Kind: KindSubscribe, Name: "s", Wants: map[string]coherency.Requirement{"X": 1}},
		{Kind: KindBatch, Ups: []Update{{Item: "X", Value: 1}, {Item: "Y", Value: 2}}},
		{Kind: KindUpdate, Item: "X", Value: 3, Resync: true},
		{Kind: KindBatch, Ups: []Update{{Item: "Y", Value: 4}}},
		{Kind: KindAccept},
	}
	var buf []byte
	var err error
	for i := range frames {
		if buf, err = AppendFrame(buf, &frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewDecoder(bytes.NewReader(buf))
	var f Frame
	for i := range frames {
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !frameEqual(&f, &frames[i]) {
			t.Fatalf("frame %d decoded to %+v, want %+v", i, f, frames[i])
		}
	}
	if err := dec.Decode(&f); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// onceReader hands out its bytes in one read and fails every read after.
type onceReader struct{ b []byte }

func (r *onceReader) Read(p []byte) (int, error) {
	if r.b == nil {
		return 0, errors.New("read past the first fill")
	}
	n := copy(p, r.b)
	r.b = nil
	return n, nil
}

// TestFrameBuffered: every frame FrameBuffered reports whole decodes
// without reading the source again, and a frame cut short — in its
// header or its body — is not reported whole.
func TestFrameBuffered(t *testing.T) {
	frames := []Frame{
		{Kind: KindUpdate, Item: "X", Value: 1},
		{Kind: KindBatch, Ups: []Update{{Item: "X", Value: 2}, {Item: "Y", Value: 3}}},
		{Kind: KindUpdate, Item: "Y", Value: 4},
	}
	var buf []byte
	var err error
	lastStart := 0 // where the last frame begins
	for i := range frames {
		lastStart = len(buf)
		if buf, err = AppendFrame(buf, &frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, cut := range []int{len(buf), len(buf) - 1, lastStart + headerSize - 1, lastStart} {
		br := bufio.NewReader(&onceReader{b: buf[:cut]})
		br.Peek(1) // the first fill
		dec := NewDecoder(br)
		var f Frame
		got := 0
		for FrameBuffered(br) {
			if err := dec.Decode(&f); err != nil {
				t.Fatalf("cut at %d, frame %d: %v", cut, got, err)
			}
			if !frameEqual(&f, &frames[got]) {
				t.Fatalf("cut at %d: frame %d decoded to %+v, want %+v", cut, got, f, frames[got])
			}
			got++
		}
		want := 2
		if cut == len(buf) {
			want = 3
		}
		if got != want {
			t.Errorf("cut at %d of %d bytes: %d frames reported whole, want %d", cut, len(buf), got, want)
		}
	}
}

// TestInternBounded churns more distinct item names through one decoder
// than the direct-mapped intern cache holds: every lookup must still
// return the right string (collisions overwrite, they never alias), and
// the cache is bounded by construction — a hostile peer cycling names
// costs overwrites, not memory.
func TestInternBounded(t *testing.T) {
	dec := NewDecoder(nil)
	for i := 0; i < 3*maxInterned; i++ {
		name := "item-" + strconv.Itoa(i)
		if got := dec.intern([]byte(name)); got != name {
			t.Fatalf("intern(%q) = %q", name, got)
		}
	}
	// Re-interning after the churn still yields correct strings.
	for _, name := range []string{"item-0", "item-12287", "fresh"} {
		if got := dec.intern([]byte(name)); got != name {
			t.Fatalf("post-churn intern(%q) = %q", name, got)
		}
	}
}

// TestDecodeLyingPrefixBoundedAlloc feeds a header announcing the full
// 16 MiB cap followed by a trickle of real bytes: the incremental body
// reader must not allocate anywhere near the announced size before the
// stream runs dry.
func TestDecodeLyingPrefixBoundedAlloc(t *testing.T) {
	b := append(header(MaxFrameBytes, Version, byte(KindBatch), 0, 0), make([]byte, 100)...)
	d := NewDecoder(bytes.NewReader(b))
	var f Frame
	if err := d.Decode(&f); err != io.ErrUnexpectedEOF {
		t.Fatalf("lying prefix: %v, want io.ErrUnexpectedEOF", err)
	}
	if cap(d.body) > 4*readChunk {
		t.Fatalf("body buffer grew to %d bytes on a 100-byte stream", cap(d.body))
	}
}
