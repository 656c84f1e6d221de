package sqldb

import (
	"fmt"
	"sync"
)

// LogEntry is one committed DML statement in a DB's replication log:
// the original SQL, its normalized arguments, and the commit timestamp
// the statement was installed at. Replaying entries in TS order onto a
// database cloned at timestamp T reproduces the source byte for byte
// (including auto-assigned primary keys), because commit order is total
// and the clone preserved slot layout and auto-increment state.
type LogEntry struct {
	TS   int64
	SQL  string
	Args []Value
}

// ReplLog is the versioned apply log a DB appends every committed DML
// statement to once enabled. Commit timestamps are dense: entry N
// (counting from the log's base) has TS base+N+1, which lets consumers
// address the log by timestamp and lets the tier wait for "replica
// applied >= CommitTS" without scanning. internal/dbtier ships entries
// to replicas asynchronously, after the primary commit — replication is
// no longer inside any lock.
type ReplLog struct {
	mu      sync.Mutex
	base    int64 // TS of the newest entry ever truncated (or the enable point)
	entries []LogEntry
	changed chan struct{} // what a drained Since handed out; the next append closes it
}

func newReplLog(base int64) *ReplLog {
	return &ReplLog{base: base}
}

// append adds one committed entry. Called with the owning DB's commitMu
// held, so TS arrives in order; a gap means a commit bypassed the log,
// which would silently desynchronize replicas — fail loudly instead.
func (l *ReplLog) append(e LogEntry) {
	l.mu.Lock()
	if want := l.base + int64(len(l.entries)) + 1; e.TS != want {
		l.mu.Unlock()
		panic(fmt.Sprintf("sqldb: replication log gap: got TS %d, want %d", e.TS, want))
	}
	l.entries = append(l.entries, e)
	if l.changed != nil {
		close(l.changed)
		l.changed = nil
	}
	l.mu.Unlock()
}

// Since returns the entries with TS > after. With none left, it returns a
// channel that is closed on the next append instead — so a consumer that
// drained the log can block for more without polling; with entries, the
// channel is nil, and the consumer calls again once it has applied them.
// A channel is made only for a consumer that may wait on it, and an
// append with no one waiting closes nothing. The returned slice is
// stable: entries are never mutated in place.
func (l *ReplLog) Since(after int64) ([]LogEntry, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	idx := after - l.base
	if idx < 0 {
		idx = 0 // truncated past the cursor; should not happen under watermark discipline
	}
	if idx < int64(len(l.entries)) {
		return l.entries[idx:], nil
	}
	if l.changed == nil {
		l.changed = make(chan struct{})
	}
	return nil, l.changed
}

// Base reports the TS of the newest entry ever truncated (or the
// enable point): the oldest catch-up point still replayable from the
// log. A replica whose applied watermark is below Base cannot catch up
// by replay and must resync from a fresh snapshot clone.
func (l *ReplLog) Base() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// TruncateThrough drops entries with TS <= ts. The tier calls this with
// the minimum replica applied watermark, bounding log memory.
func (l *ReplLog) TruncateThrough(ts int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := ts - l.base
	if n <= 0 {
		return
	}
	if n > int64(len(l.entries)) {
		n = int64(len(l.entries))
	}
	l.entries = l.entries[n:]
	l.base += n
}
