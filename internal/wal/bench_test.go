package wal

import (
	"bytes"
	"fmt"
	"testing"
)

// BenchmarkWALAppend measures the group-commit hot path: 16 buffered
// appends and one commit, fsync disabled so the number is the encode +
// buffered-write cost a batch actually pays.
func BenchmarkWALAppend(b *testing.B) {
	l, _, err := Open(b.TempDir(), Options{SnapshotEvery: 1 << 30, Fsync: PolicyNever})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	items := make([]string, 16)
	for i := range items {
		items[i] = fmt.Sprintf("item%02d", i)
	}
	state := func() State { return State{} }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, it := range items {
			l.Append(it, float64(i+j))
		}
		if err := l.Commit(state); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALReplay measures recovery-side parse throughput over an
// in-memory log of 1024 sixteen-update records.
func BenchmarkWALReplay(b *testing.B) {
	buf := header(logMagic)
	ups := make([]Update, 16)
	for i := range ups {
		ups[i] = Update{Item: fmt.Sprintf("item%02d", i), Value: float64(i)}
	}
	for r := 0; r < 1024; r++ {
		buf = appendRecord(buf, ups)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batches, _, err := Replay(bytes.NewReader(buf))
		if err != nil || len(batches) != 1024 {
			b.Fatalf("replay: %d batches, err %v", len(batches), err)
		}
	}
}
