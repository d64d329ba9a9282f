// Package wal gives a repository durable state: a per-shard write-ahead
// log with periodic snapshots, so a crashed process rejoins with its
// exact pre-crash per-item values and edge filter state instead of
// rejoining cold and serving nothing until the next source push.
//
// The write path rides the transport's batch boundary: every update a
// node applies is a buffered Append, and the batch's end is one Commit —
// one log record, one buffered write, and (under the default policy) one
// fsync per *batch*, never one per update. Every SnapshotEvery commits
// the log rotates: the caller's full state is written as a snapshot and
// the old log segment is discarded, which bounds both disk usage and
// replay time.
//
// Recovery (Open) loads the newest valid snapshot, replays the matching
// log segment, and truncates any torn tail — a crash mid-commit leaves a
// log that recovers to the last complete record, never one that errors
// or panics (FuzzReplay pins this over corrupted, truncated and
// bit-flipped logs). The replayed batches are returned to the caller in
// commit order so it can re-apply them through the node core's normal
// pipeline, reproducing not just the values but the per-edge Eq. 3+7
// filter decisions the pre-crash process had made.
//
// # On-disk layout
//
// All integers are little-endian, like the wire format (internal/wire),
// and both file kinds open with a magic + version header so the layout
// can evolve under the same rule: bump the version byte on any
// incompatible change; readers reject versions they do not know.
//
//	log  file wal-<seq>.log:   "D3TW" ver(1) pad(3), then records
//	record:                    u32 len | u32 crc32(payload) | payload
//	record payload:            u32 count, count x (u16 itemLen, item, u64 bits(value))
//	snap file snap-<seq>.snap: "D3TS" ver(1) pad(3), u64 seq,
//	                           u32 len | u32 crc32(payload) | payload
//	snap payload:              u32 nValues, nValues x (u16 itemLen, item, u64 bits),
//	                           u32 nEdges, nEdges x (u64 dep, u16 itemLen, item,
//	                                                 u64 bits(last), u8 seeded)
//
// A snapshot with sequence number S covers every commit before log
// segment wal-S was created; recovery is "load snap-S, replay wal-S".
// Rotation writes snap-(S+1) to a temp file, fsyncs, renames (atomic on
// POSIX), creates wal-(S+1), then removes the old pair — a crash between
// any two steps leaves a directory Open recovers from.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Fsync policies: how often the log forces its records to stable
// storage. Every policy still flushes buffered records to the OS at each
// Commit, so a process crash (the failure model of the resilience layer)
// never loses a committed batch; the policies differ only in power-loss
// durability versus commit latency.
const (
	// PolicyBatch (the default) fsyncs at snapshot rotations and Close:
	// commits are OS-buffered, bounded data loss on power failure.
	PolicyBatch = "batch"
	// PolicyAlways fsyncs once per committed batch — the group commit:
	// one fsync per batch, never one per update.
	PolicyAlways = "always"
	// PolicyNever never fsyncs (tests, figures, throwaway dirs).
	PolicyNever = "never"
)

// ParsePolicy validates an fsync policy name ("" means PolicyBatch).
func ParsePolicy(s string) (string, error) {
	switch s {
	case "", PolicyBatch:
		return PolicyBatch, nil
	case PolicyAlways, PolicyNever:
		return s, nil
	}
	return "", fmt.Errorf("wal: unknown fsync policy %q (want %s, %s or %s)",
		s, PolicyBatch, PolicyAlways, PolicyNever)
}

// Options configures one log directory.
type Options struct {
	// Dir is the log's directory, created if missing. One directory holds
	// one shard's state; a sharded node uses one per (node, shard).
	Dir string
	// SnapshotEvery is the number of commits between snapshot rotations
	// (default 256). Smaller intervals mean shorter replay at recovery
	// and more snapshot writes in steady state.
	SnapshotEvery int
	// Fsync is the durability policy (PolicyBatch when empty).
	Fsync string
}

// withDefaults resolves zero values.
func (o Options) withDefaults() (Options, error) {
	if o.Dir == "" {
		return o, errors.New("wal: Options.Dir is required")
	}
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 256
	}
	p, err := ParsePolicy(o.Fsync)
	if err != nil {
		return o, err
	}
	o.Fsync = p
	return o, nil
}

// Update is one logged (item, value) application.
type Update struct {
	Item  string
	Value float64
}

// Edge is one outgoing push edge's durable filter state: the last value
// pushed to the dependent and whether the edge has carried a value at
// all (the first-push rule's flag). Dep is the dependent's repository id
// widened to int64 so the package stays free of overlay types.
type Edge struct {
	Dep    int64
	Item   string
	Last   float64
	Seeded bool
}

// State is a full durable snapshot of one core: per-item values plus
// per-edge filter state.
type State struct {
	Values map[string]float64
	Edges  []Edge
}

// Recovered is what Open found on disk.
type Recovered struct {
	// State is the newest valid snapshot's state; apply it first.
	State State
	// Batches are the committed batches replayed from the snapshot's log
	// segment, in commit order; re-apply them after State, through the
	// node core's normal pipeline so edge filter decisions replay too.
	Batches [][]Update
	// SnapshotSeq is the recovered snapshot's sequence number (0 when
	// the directory held no snapshot and recovery started empty).
	SnapshotSeq uint64
	// Updates counts the individual updates across Batches.
	Updates int
	// TornBytes is how much torn tail was truncated from the log — bytes
	// after the last complete, checksummed record. Nonzero after a crash
	// mid-commit; recovery proceeds without them.
	TornBytes int64
}

// Empty reports whether recovery found nothing: no snapshot state and no
// replayable records.
func (r *Recovered) Empty() bool {
	return len(r.State.Values) == 0 && len(r.State.Edges) == 0 && len(r.Batches) == 0
}

const (
	logMagic  = "D3TW"
	snapMagic = "D3TS"
	version   = 1
	headerLen = 8
	// maxRecord caps one record's payload (16 MiB) so a corrupt length
	// prefix cannot drive allocation; larger prefixes read as torn tail.
	maxRecord = 1 << 24
)

// Log is an open write-ahead log. Not safe for concurrent use: callers
// serialize on the same lock that guards the core the log shadows.
type Log struct {
	opts Options
	seq  uint64
	f    *os.File
	w    *bufio.Writer
	pend []Update
	buf  []byte
	// commits counts committed (non-empty) batches since the last
	// rotation; snapshots counts rotations performed by this handle.
	commits   int
	snapshots uint64
	closed    bool
}

// Open recovers the directory's state and opens the log for appending.
// It creates the directory if needed, loads the newest valid snapshot,
// replays the matching log segment (truncating any torn tail in place),
// and removes stale segments left by an interrupted rotation.
func Open(dir string, opts Options) (*Log, *Recovered, error) {
	opts.Dir = dir
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	snaps, logs, err := scanDir(dir)
	if err != nil {
		return nil, nil, err
	}

	rec := &Recovered{State: State{Values: map[string]float64{}}}
	// Newest valid snapshot wins; a corrupt one falls back to the next.
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] })
	for _, s := range snaps {
		st, err := readSnapshot(snapPath(dir, s), s)
		if err != nil {
			continue
		}
		rec.State = st
		rec.SnapshotSeq = s
		break
	}
	seq := rec.SnapshotSeq
	if seq == 0 {
		seq = 1 // fresh directory: implicit empty snapshot, first segment
	}

	if err := replayFile(logPath(dir, seq), rec); err != nil {
		return nil, nil, err
	}

	// Remove every other segment: older pairs an interrupted rotation
	// left behind, and newer logs orphaned by a snapshot that failed
	// validation (their records are unreachable without it).
	for _, s := range snaps {
		if s != rec.SnapshotSeq {
			os.Remove(snapPath(dir, s))
		}
	}
	for _, s := range logs {
		if s != seq {
			os.Remove(logPath(dir, s))
		}
	}

	l := &Log{opts: opts, seq: seq}
	if err := l.openSegment(); err != nil {
		return nil, nil, err
	}
	return l, rec, nil
}

// openSegment opens (creating and headering if needed) wal-<seq> for
// append.
func (l *Log) openSegment() error {
	path := logPath(l.opts.Dir, l.seq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	if info.Size() == 0 {
		if _, err := f.Write(header(logMagic)); err != nil {
			f.Close()
			return fmt.Errorf("wal: %w", err)
		}
	} else if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// Append buffers one update for the current batch. It does no IO; the
// batch reaches the log at the next Commit.
func (l *Log) Append(item string, v float64) {
	l.pend = append(l.pend, Update{Item: item, Value: v})
}

// Commit writes the buffered batch as one record — the group commit on
// the batch boundary — and rotates the snapshot when due. state
// is called only when a rotation happens, and must return the caller's
// full current state (the core's values and edge filter state). An empty
// batch commits to nothing.
func (l *Log) Commit(state func() State) error {
	if l.closed {
		return errors.New("wal: commit on closed log")
	}
	if len(l.pend) == 0 {
		return nil
	}
	l.buf = appendRecord(l.buf[:0], l.pend)
	l.pend = l.pend[:0]
	if _, err := l.w.Write(l.buf); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if l.opts.Fsync == PolicyAlways {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	l.commits++
	if l.commits >= l.opts.SnapshotEvery {
		return l.rotate(state())
	}
	return nil
}

// rotate writes the state as snap-(seq+1), switches to a fresh log
// segment, and removes the old pair. Each step leaves the directory
// recoverable: the snapshot lands durably (temp file + fsync + rename)
// before the old segment is touched.
func (l *Log) rotate(st State) error {
	next := l.seq + 1
	if err := writeSnapshot(l.opts.Dir, next, st, l.opts.Fsync != PolicyNever); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	oldLog, oldSnap := logPath(l.opts.Dir, l.seq), snapPath(l.opts.Dir, l.seq)
	l.seq = next
	l.commits = 0
	l.snapshots++
	if err := l.openSegment(); err != nil {
		return err
	}
	os.Remove(oldLog)
	os.Remove(oldSnap)
	return nil
}

// Close flushes, fsyncs (except under PolicyNever) and closes the log.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if l.opts.Fsync != PolicyNever {
		if err := l.f.Sync(); err != nil {
			l.f.Close()
			return fmt.Errorf("wal: %w", err)
		}
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// Seq returns the current segment sequence number.
func (l *Log) Seq() uint64 { return l.seq }

// Snapshots returns how many snapshot rotations this handle performed.
func (l *Log) Snapshots() uint64 { return l.snapshots }

// appendRecord encodes one committed batch onto buf.
func appendRecord(buf []byte, ups []Update) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // len + crc placeholders
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ups)))
	for _, u := range ups {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(u.Item)))
		buf = append(buf, u.Item...)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(u.Value))
	}
	payload := buf[start+8:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// Replay parses a log stream: header, then records until the first torn
// or corrupt byte. It returns the committed batches in order and the
// number of stream bytes the valid prefix spans (header included); the
// caller truncates there. A bad header is an error — that is not a torn
// tail but a file of the wrong kind or version; everything after a valid
// header recovers, never errors.
func Replay(r io.Reader) (batches [][]Update, valid int64, err error) {
	h := make([]byte, headerLen)
	if _, err := io.ReadFull(r, h); err != nil {
		return nil, 0, fmt.Errorf("wal: short log header: %w", err)
	}
	if string(h[:4]) != logMagic {
		return nil, 0, fmt.Errorf("wal: bad log magic %q", h[:4])
	}
	if h[4] != version {
		return nil, 0, fmt.Errorf("wal: unknown log version %d", h[4])
	}
	valid = headerLen
	hdr := make([]byte, 8)
	var payload []byte
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			return batches, valid, nil // clean EOF or torn record header
		}
		n := binary.LittleEndian.Uint32(hdr)
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if n < 4 || n > maxRecord {
			return batches, valid, nil // corrupt length prefix
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return batches, valid, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return batches, valid, nil // bit flip
		}
		ups, ok := parseRecord(payload)
		if !ok {
			return batches, valid, nil // checksummed garbage (foreign writer)
		}
		batches = append(batches, ups)
		valid += 8 + int64(n)
	}
}

// parseRecord decodes one record payload.
func parseRecord(p []byte) ([]Update, bool) {
	count := binary.LittleEndian.Uint32(p)
	p = p[4:]
	// Each update needs at least 10 bytes (empty item): a count beyond
	// that is corrupt, not a huge batch.
	if int(count) > len(p)/10 {
		return nil, false
	}
	ups := make([]Update, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(p) < 2 {
			return nil, false
		}
		n := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if len(p) < n+8 {
			return nil, false
		}
		ups = append(ups, Update{
			Item:  string(p[:n]),
			Value: math.Float64frombits(binary.LittleEndian.Uint64(p[n:])),
		})
		p = p[n+8:]
	}
	if len(p) != 0 {
		return nil, false
	}
	return ups, true
}

// replayFile replays one on-disk segment into rec, truncating any torn
// tail in place. A missing segment recovers to the snapshot alone.
func replayFile(path string, rec *Recovered) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	batches, valid, err := Replay(bufio.NewReader(f))
	f.Close()
	if err != nil {
		// The header itself is unusable: the segment carries no
		// recoverable records. Start it over rather than fail the node.
		os.Remove(path)
		return nil
	}
	rec.Batches = batches
	for _, b := range batches {
		rec.Updates += len(b)
	}
	if torn := info.Size() - valid; torn > 0 {
		rec.TornBytes = torn
		if err := os.Truncate(path, valid); err != nil {
			return fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	return nil
}

// header builds an 8-byte file header.
func header(magic string) []byte {
	h := make([]byte, headerLen)
	copy(h, magic)
	h[4] = version
	return h
}

func logPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.log", seq))
}

func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%08d.snap", seq))
}

// scanDir lists the directory's snapshot and log sequence numbers.
func scanDir(dir string) (snaps, logs []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			if s, err := strconv.ParseUint(name[5:len(name)-5], 10, 64); err == nil {
				snaps = append(snaps, s)
			}
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			if s, err := strconv.ParseUint(name[4:len(name)-4], 10, 64); err == nil {
				logs = append(logs, s)
			}
		}
	}
	return snaps, logs, nil
}

// writeSnapshot writes snap-<seq> durably: temp file, optional fsync,
// atomic rename. The payload is byte-deterministic — values sorted by
// item, edges by (item, dep) — so identical states produce identical
// snapshots.
func writeSnapshot(dir string, seq uint64, st State, sync bool) error {
	buf := header(snapMagic)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // len + crc placeholders

	items := make([]string, 0, len(st.Values))
	for item := range st.Values {
		items = append(items, item)
	}
	sort.Strings(items)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(items)))
	for _, item := range items {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(item)))
		buf = append(buf, item...)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.Values[item]))
	}
	edges := append([]Edge(nil), st.Edges...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Item != edges[j].Item {
			return edges[i].Item < edges[j].Item
		}
		return edges[i].Dep < edges[j].Dep
	})
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(edges)))
	for _, e := range edges {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Dep))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(e.Item)))
		buf = append(buf, e.Item...)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Last))
		var s byte
		if e.Seeded {
			s = 1
		}
		buf = append(buf, s)
	}
	payload := buf[start+8:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))

	tmp := snapPath(dir, seq) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("wal: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp, snapPath(dir, seq)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// readSnapshot loads and validates snap-<seq>. Any mismatch — magic,
// version, sequence, checksum, malformed payload — is an error; the
// caller falls back to an older snapshot.
func readSnapshot(path string, seq uint64) (State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return State{}, err
	}
	if len(data) < headerLen+16 {
		return State{}, errors.New("wal: snapshot too short")
	}
	if string(data[:4]) != snapMagic {
		return State{}, errors.New("wal: bad snapshot magic")
	}
	if data[4] != version {
		return State{}, errors.New("wal: unknown snapshot version")
	}
	if got := binary.LittleEndian.Uint64(data[headerLen:]); got != seq {
		return State{}, fmt.Errorf("wal: snapshot claims seq %d, file named %d", got, seq)
	}
	n := binary.LittleEndian.Uint32(data[headerLen+8:])
	crc := binary.LittleEndian.Uint32(data[headerLen+12:])
	payload := data[headerLen+16:]
	if uint32(len(payload)) != n {
		return State{}, errors.New("wal: snapshot length mismatch")
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return State{}, errors.New("wal: snapshot checksum mismatch")
	}
	st, ok := parseSnapshot(payload)
	if !ok {
		return State{}, errors.New("wal: malformed snapshot payload")
	}
	return st, nil
}

// parseSnapshot decodes a validated snapshot payload.
func parseSnapshot(p []byte) (State, bool) {
	st := State{Values: map[string]float64{}}
	if len(p) < 4 {
		return st, false
	}
	nv := binary.LittleEndian.Uint32(p)
	p = p[4:]
	if int(nv) > len(p)/10 {
		return st, false
	}
	for i := uint32(0); i < nv; i++ {
		if len(p) < 2 {
			return st, false
		}
		n := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if len(p) < n+8 {
			return st, false
		}
		st.Values[string(p[:n])] = math.Float64frombits(binary.LittleEndian.Uint64(p[n:]))
		p = p[n+8:]
	}
	if len(p) < 4 {
		return st, false
	}
	ne := binary.LittleEndian.Uint32(p)
	p = p[4:]
	// Minimum edge size: 8 (dep) + 2 (len) + 8 (last) + 1 (seeded).
	if int(ne) > len(p)/19 {
		return st, false
	}
	for i := uint32(0); i < ne; i++ {
		if len(p) < 10 {
			return st, false
		}
		dep := int64(binary.LittleEndian.Uint64(p))
		n := int(binary.LittleEndian.Uint16(p[8:]))
		p = p[10:]
		if len(p) < n+9 {
			return st, false
		}
		st.Edges = append(st.Edges, Edge{
			Dep:    dep,
			Item:   string(p[:n]),
			Last:   math.Float64frombits(binary.LittleEndian.Uint64(p[n:])),
			Seeded: p[n+8] == 1,
		})
		p = p[n+9:]
	}
	return st, len(p) == 0
}
