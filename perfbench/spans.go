package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of a traced run. Spans of one operation share
// Op; Parent names the span that caused this one (0 for an operation's
// root). Layer totals gathered inside an operation, such as prefetcher
// Train time, are spans with a duration and a call count but no start.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us,omitempty"`
	DurUs   float64 `json:"dur_us"`
	Count   int64   `json:"count,omitempty"`
}

// spanLog keeps a traced run's spans in memory until the run ends. A nil
// log records nothing, so untraced runs pay no cost.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog(traced bool) *spanLog {
	if !traced {
		return nil
	}
	return &spanLog{t0: time.Now()}
}

// interval records a span from start to end and returns its ID.
func (l *spanLog) interval(op, parent int, name string, start, end time.Time) int {
	if l == nil {
		return 0
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		StartUs: float64(start.Sub(l.t0).Nanoseconds()) / 1e3,
		DurUs:   float64(end.Sub(start).Nanoseconds()) / 1e3,
	})
	return id
}

// total records a layer's accumulated time and call count inside parent.
func (l *spanLog) total(op, parent int, name string, ns, count int64) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{
		ID: len(l.spans) + 1, Parent: parent, Op: op, Name: name,
		DurUs: float64(ns) / 1e3, Count: count,
	})
}

// write stores the spans as JSON lines in dir and names the file on
// standard error.
func (l *spanLog) write(dir, workload string, seed int64) error {
	if l == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(l.spans), path)
	return nil
}
