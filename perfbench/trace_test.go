package main

import (
	"testing"
	"time"
)

// TestBreakdownSplitsWallTime checks self and wait time: overlapping
// provider calls count once, calls are clipped to their operation, calls
// of other operations are ignored, and self + wait is the op's wall time.
func TestBreakdownSplitsWallTime(t *testing.T) {
	r := newRecorder()
	at := func(ms int) time.Time { return r.epoch.Add(time.Duration(ms) * time.Millisecond) }
	r.endOp(100, "get", at(10), at(110))
	r.endOp(200, "put", at(0), at(50))
	for _, c := range []struct {
		parent     int64
		start, end int
	}{
		{100, 20, 40}, {100, 30, 60}, // overlap: 20-60
		{100, 100, 130}, // clipped: 100-110
		{100, 0, 5},     // outside the op
		{200, 0, 50},    // another op
		{0, 60, 70},     // set-up call, no op
	} {
		r.add(span{Parent: c.parent, Layer: "csp", Name: "download"}, at(c.start), at(c.end))
	}
	for _, b := range r.breakdown() {
		want := map[string]time.Duration{"get": 50 * time.Millisecond, "put": 50 * time.Millisecond}[b.op.Name]
		if b.wait != want {
			t.Errorf("%s: wait %v, want %v", b.op.Name, b.wait, want)
		}
		if b.self+b.wait != b.op.dur() {
			t.Errorf("%s: self %v + wait %v != wall %v", b.op.Name, b.self, b.wait, b.op.dur())
		}
	}
}
