package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// span is one traced interval, recorded at the benchmark's own call
// sites. Spans of one update share its id (the publish index within the
// traced phase); parent names the span that caused this one. Times are
// ns since the run's epoch.
type span struct {
	name   string
	id     int32
	parent string
	start  int64
	end    int64
}

// spanLog keeps the spans of a traced run in memory until the run ends.
type spanLog struct{ spans []span }

func (l *spanLog) add(name string, id int32, parent string, start, end int64) {
	l.spans = append(l.spans, span{name, id, parent, start, end})
}

// write stores the spans as <dir>/<workload>.trace.json, one JSON object
// per line inside an array.
func (l *spanLog) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.json"))
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprint(w, "[")
	for i, s := range l.spans {
		sep := ",\n"
		if i == 0 {
			sep = "\n"
		}
		fmt.Fprintf(w, `%s{"name":%q,"id":%d,"parent":%q,"start":%d,"end":%d}`, sep, s.name, s.id, s.parent, s.start, s.end)
	}
	fmt.Fprint(w, "\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// transportSpans turns a traced chunk into spans. Each update that was
// delivered anywhere gets a root "update" span from its due time to its
// last receipt, with the publish call and one "deliver_d<depth>" span per
// receipt under it. Updates nobody received keep only their publish call:
// the filters stopped them, and that cost is all inside the call.
func (t *transportRun) transportSpans(c *chunk) *spanLog {
	l := &spanLog{}
	last := make([]int64, len(c.ups))
	for _, r := range t.receivers {
		name := fmt.Sprintf("deliver_d%d", r.sess.spec.depth)
		for _, s := range r.samples {
			l.add(name, s.pub, "update", atomic.LoadInt64(&c.due[s.pub]), s.at)
			if s.at > last[s.pub] {
				last[s.pub] = s.at
			}
		}
	}
	for i := 0; i < len(c.ups); i += t.wl.batch {
		parent := ""
		for j := i; j < i+t.wl.batch && j < len(c.ups); j++ {
			if last[j] > 0 {
				parent = "update"
				end := last[j]
				if c.callEnd[i] > end {
					end = c.callEnd[i]
				}
				l.add("update", int32(j), "", atomic.LoadInt64(&c.due[j]), end)
			}
		}
		l.add("publish_call", int32(i), parent, c.callStart[i], c.callEnd[i])
	}
	return l
}
