package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Level selects how much a Logger emits.
type Level int

const (
	// LevelQuiet suppresses everything, including Infof.
	LevelQuiet Level = iota
	// LevelInfo is the default: milestones and summaries.
	LevelInfo
	// LevelDebug adds per-step progress (sweep points, cache hits,
	// periodic obs snapshots).
	LevelDebug
)

// Logger is the small leveled logger shared by the CLIs and the sweep
// runner, so progress lines and obs snapshots go through one output
// discipline. Lines are written atomically (one locked Fprintf each)
// and prefixed with elapsed time since the logger was created. A nil
// *Logger discards everything, so library code logs unconditionally.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer
	level Level
	start time.Time
}

// NewLogger writes lines at or below level to w. A LevelQuiet logger
// is returned as nil — the universal discard logger.
func NewLogger(w io.Writer, level Level) *Logger {
	if w == nil || level <= LevelQuiet {
		return nil
	}
	return &Logger{w: w, level: level, start: time.Now()}
}

// Enabled reports whether lines at level would be emitted; use it to
// skip expensive argument construction. Nil-safe.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level <= l.level
}

// Infof emits a milestone line. Nil-safe.
func (l *Logger) Infof(format string, args ...any) {
	l.logf(LevelInfo, format, args...)
}

// Debugf emits a progress-detail line. Nil-safe.
func (l *Logger) Debugf(format string, args ...any) {
	l.logf(LevelDebug, format, args...)
}

func (l *Logger) logf(level Level, format string, args ...any) {
	if !l.Enabled(level) {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	elapsed := time.Since(l.start).Round(time.Millisecond)
	fmt.Fprintf(l.w, "[%8s] "+format+"\n", append([]any{elapsed}, args...)...)
}

// CommandLevel is the level a command's -v and -quiet flags select:
// LevelInfo by default, LevelDebug with -v, LevelQuiet with -quiet
// (which wins over -v).
func CommandLevel(verbose, quiet bool) Level {
	switch {
	case quiet:
		return LevelQuiet
	case verbose:
		return LevelDebug
	}
	return LevelInfo
}

// LogEvery logs t's one-line Summary at info level once per period,
// stamped with the time since start, until the returned stop is called;
// stop returns once logging has ended. A period <= 0 logs nothing.
func LogEvery(l *Logger, t *Tree, period time.Duration, start time.Time) (stop func()) {
	if period <= 0 {
		return func() {}
	}
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				l.Infof("%s", t.Summary(time.Since(start).Microseconds()))
			}
		}
	}()
	return func() { close(done); <-exited }
}
