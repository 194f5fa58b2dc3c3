package obs

import (
	"sync"
	"testing"
	"time"

	"repro/internal/reliability"
)

// manualClock is a settable clock for driving the sampling gate.
type manualClock struct {
	mu sync.Mutex
	at time.Time
}

func (c *manualClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.at
}

func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	c.at = c.at.Add(d)
	c.mu.Unlock()
}

// noLatency is a provider record with no latency observed.
var noLatency = reliability.NewEstimator(0, nil)

// latencyOf returns a provider record whose latency EWMA for cspName is d.
func latencyOf(cspName string, d time.Duration) *reliability.Estimator {
	p := reliability.NewEstimator(0, nil)
	p.Record(cspName, reliability.Contact{Elapsed: d})
	return p
}

func loadFor(t *testing.T, o *Observer, cspName string) CSPLoad {
	t.Helper()
	for _, cl := range o.LoadStats() {
		if cl.CSP == cspName {
			return cl
		}
	}
	t.Fatalf("no load window for %s", cspName)
	return CSPLoad{}
}

// TestLoadWindowEviction: the per-CSP sample ring holds Window entries,
// oldest first, and filling past capacity drops the oldest.
func TestLoadWindowEviction(t *testing.T) {
	o := NewObserverWith(Options{Load: LoadConfig{Window: 4, SampleInterval: -1}})
	for n := 1; n <= 7; n++ {
		o.SampleLoad("cspa", n, 0, noLatency)
	}
	w := loadFor(t, o, "cspa").Window
	if len(w) != 4 {
		t.Fatalf("window length = %d, want 4", len(w))
	}
	for i, s := range w {
		if want := 4 + i; s.InFlight != want {
			t.Fatalf("window[%d].InFlight = %d, want %d (oldest evicted first)", i, s.InFlight, want)
		}
	}
	if cur := loadFor(t, o, "cspa").Current; cur.InFlight != 7 {
		t.Fatalf("Current.InFlight = %d, want newest sample 7", cur.InFlight)
	}
}

// TestLoadSampleSpacing: event-driven sampling fires far faster than the
// window wants; the spacing gate retains at most one sample per
// SampleInterval.
func TestLoadWindowSampleSpacing(t *testing.T) {
	clk := &manualClock{at: time.Unix(1000, 0)}
	o := NewObserverWith(Options{Load: LoadConfig{Window: 8, SampleInterval: 100 * time.Millisecond}})
	o.SetClock(clk.now)

	o.SampleLoad("cspa", 1, 0, noLatency)
	o.SampleLoad("cspa", 2, 0, noLatency) // same instant: gated
	clk.advance(50 * time.Millisecond)
	o.SampleLoad("cspa", 3, 0, noLatency) // still inside the interval: gated
	if w := loadFor(t, o, "cspa").Window; len(w) != 1 || w[0].InFlight != 1 {
		t.Fatalf("window = %+v, want the single first sample", w)
	}
	clk.advance(60 * time.Millisecond)
	o.SampleLoad("cspa", 4, 0, noLatency) // 110ms after the retained sample
	if w := loadFor(t, o, "cspa").Window; len(w) != 2 || w[1].InFlight != 4 {
		t.Fatalf("window = %+v, want a second sample once the interval passed", w)
	}
}

// TestLoadIdleBypass: the transition back to in-flight zero bypasses the
// spacing gate — otherwise the newest retained sample could report the
// provider as loaded forever.
func TestLoadIdleBypass(t *testing.T) {
	clk := &manualClock{at: time.Unix(1000, 0)}
	o := NewObserverWith(Options{Load: LoadConfig{Window: 8, SampleInterval: time.Hour}})
	o.SetClock(clk.now)

	o.SampleLoad("cspa", 3, 0, noLatency)
	o.SampleLoad("cspa", 0, 0, noLatency) // inside the gate, but an idle transition
	w := loadFor(t, o, "cspa").Window
	if len(w) != 2 || w[1].InFlight != 0 {
		t.Fatalf("window = %+v, want forced idle sample", w)
	}
	// Idle→idle is not a transition; the gate holds.
	o.SampleLoad("cspa", 0, 0, noLatency)
	if w := loadFor(t, o, "cspa").Window; len(w) != 2 {
		t.Fatalf("window grew to %d on an idle no-op, want 2", len(w))
	}
}

// TestLoadConcurrentSampling hammers the tracker's sample and snapshot
// paths from concurrent goroutines; run under -race this is the data-race check for
// the load plane.
func TestLoadConcurrentSampling(t *testing.T) {
	o := NewObserverWith(Options{Load: LoadConfig{Window: 16, SampleInterval: -1}})
	p := reliability.NewEstimator(0, nil)
	csps := []string{"cspa", "cspb", "cspc"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := csps[g%len(csps)]
			for i := 0; i < 200; i++ {
				switch i % 3 {
				case 0:
					p.Record(name, reliability.Contact{Elapsed: time.Duration(1+i%9) * time.Millisecond})
				case 1:
					o.SampleLoad(name, i%7, i%11, p)
				default:
					o.LoadStats()
				}
			}
		}(g)
	}
	wg.Wait()

	for _, name := range csps {
		cl := loadFor(t, o, name)
		if len(cl.Window) == 0 {
			t.Fatalf("%s retained no samples", name)
		}
		if len(cl.Window) > 16 {
			t.Fatalf("%s window overflowed: %d > 16", name, len(cl.Window))
		}
	}
}
