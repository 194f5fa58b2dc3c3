package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one client
// operation share the operation's span as Parent.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Layer   string `json:"layer"` // core, csp, chunker, metadata or erasure
	Name    string `json:"name"`  // op kind, provider call kind or replay step
	CSP     string `json:"csp,omitempty"`
	Start   int64  `json:"start_ns"` // since the recorder's epoch
	End     int64  `json:"end_ns"`
	Bytes   int64  `json:"bytes,omitempty"`
	Objects int    `json:"objects,omitempty"`
	Meta    int    `json:"meta,omitempty"`
	Err     string `json:"err,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; write dumps them when the run ends.
type recorder struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records sp over [start, end], under a fresh ID unless sp has one.
func (r *recorder) add(sp span, start, end time.Time) {
	if sp.ID == 0 {
		sp.ID = r.next.Add(1)
	}
	sp.Start, sp.End = int64(start.Sub(r.epoch)), int64(end.Sub(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// time records a replay span around fn.
func (r *recorder) time(layer, name string, bytes int64, fn func()) {
	start := time.Now()
	fn()
	r.add(span{Layer: layer, Name: name, Bytes: bytes}, start, time.Now())
}

type opKey struct{}

// beginOp reserves an operation span ID and returns a context carrying
// it; endOp records the span under that ID.
func (r *recorder) beginOp(ctx context.Context) (context.Context, int64) {
	id := r.next.Add(1)
	return context.WithValue(ctx, opKey{}, id), id
}

func (r *recorder) endOp(id int64, kind string, start, end time.Time) {
	r.add(span{ID: id, Layer: "core", Name: kind}, start, end)
}

// opOf returns the operation span ID a provider call's context carries,
// or 0 outside any operation (set-up).
func opOf(ctx context.Context) int64 {
	id, _ := ctx.Value(opKey{}).(int64)
	return id
}

// write dumps every span as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, sp := range r.spans {
		if err := enc.Encode(sp); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opBreakdown is one client operation split into the time its provider
// calls cover (wait) and the rest (self). self + wait = the op's wall
// time by construction.
type opBreakdown struct {
	op         span
	self, wait time.Duration
	calls      []span
}

// breakdown attributes every provider-call span to its operation and
// computes each operation's wait as the union of its calls' intervals,
// clipped to the operation.
func (r *recorder) breakdown() []opBreakdown {
	r.mu.Lock()
	defer r.mu.Unlock()
	byOp := make(map[int64]*opBreakdown)
	var order []int64
	for _, sp := range r.spans {
		if sp.Layer == "core" {
			byOp[sp.ID] = &opBreakdown{op: sp}
			order = append(order, sp.ID)
		}
	}
	for _, sp := range r.spans {
		if sp.Layer != "csp" {
			continue
		}
		if b := byOp[sp.Parent]; b != nil {
			b.calls = append(b.calls, sp)
		}
	}
	out := make([]opBreakdown, 0, len(order))
	for _, id := range order {
		b := byOp[id]
		b.wait = unionWithin(b.calls, b.op.Start, b.op.End)
		b.self = b.op.dur() - b.wait
		out = append(out, *b)
	}
	return out
}

// unionWithin returns the length of the union of the spans' intervals
// clipped to [lo, hi].
func unionWithin(spans []span, lo, hi int64) time.Duration {
	iv := make([][2]int64, 0, len(spans))
	for _, sp := range spans {
		s, e := max(sp.Start, lo), min(sp.End, hi)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	for i, v := range iv {
		if i == 0 || v[0] > curE {
			total += curE - curS
			curS, curE = v[0], v[1]
			continue
		}
		curE = max(curE, v[1])
	}
	total += curE - curS
	return time.Duration(total)
}
