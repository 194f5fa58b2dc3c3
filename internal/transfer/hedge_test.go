package transfer

import (
	"context"
	"testing"
	"time"

	"repro/internal/csp"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/reliability"
)

// warm feeds n successful contacts into the engine's provider record so
// the provider's EWMA is armed with the given latency.
func warm(e *Engine, cspName string, n int, latency time.Duration) {
	for i := 0; i < n; i++ {
		e.providers.Record(cspName, reliability.Contact{Elapsed: latency})
	}
}

// park starts n attempts against cspName on the engine, each holding its
// in-flight slot for hold of virtual time, and returns once every one of
// them has been admitted or queued. Call it inside nw.Run; the returned
// func waits for the attempts to drain.
func park(e *Engine, nw *netsim.Network, cspName string, n int, hold time.Duration) (drain func()) {
	op := e.Begin(context.Background())
	g := nw.NewGroup()
	for i := 0; i < n; i++ {
		g.Add(1)
		nw.Go(func() {
			defer g.Done()
			_ = op.Do(op.Context(), sleepAttempt(nw, cspName, hold))
		})
	}
	nw.Sleep(time.Millisecond)
	return func() {
		g.Wait()
		op.Finish()
	}
}

// TestHedgeColdStartArming is the cold-start hedge-storm regression: a
// provider whose EWMA was seeded by a single anomalously fast sample must
// not arm hedging until HedgeMinSamples successes have been observed.
func TestHedgeColdStartArming(t *testing.T) {
	ctx := context.Background()
	o := obs.NewObserver()
	e, _ := newSimEngine(Tunables{HedgeMinSamples: 4}, o)

	// One fast sample: the pre-fix engine would hedge off this EWMA.
	warm(e, "cspa", 1, time.Millisecond)
	if got := e.HedgeAfter(ctx, "cspa", 100*time.Millisecond); got != 0 {
		t.Fatalf("cold provider armed a hedge: HedgeAfter = %v, want 0", got)
	}
	if st := e.HedgeState("cspa"); st != "cold" {
		t.Fatalf("HedgeState = %q, want cold", st)
	}
	p, ok := o.Registry().Snapshot().Find(obs.MetricHedgeSuppressed, map[string]string{"csp": "cspa", "reason": "cold"})
	if !ok || p.Value < 1 {
		t.Fatalf("hedge_suppressed{cspa,cold} = %v %v, want >= 1", p.Value, ok)
	}

	warm(e, "cspa", 3, time.Millisecond)
	if got := e.HedgeAfter(ctx, "cspa", 100*time.Millisecond); got == 0 {
		t.Fatal("provider with HedgeMinSamples successes did not arm")
	}
	if st := e.HedgeState("cspa"); st != "" {
		t.Fatalf("armed provider HedgeState = %q, want \"\"", st)
	}
}

// TestHedgeLoadSuppression: once the engine's admission queue crosses
// HedgeLoadThreshold x MaxInFlight, hedges are withheld (Ghosh's
// crossover) and counted; redundant race lanes are refused too.
func TestHedgeLoadSuppression(t *testing.T) {
	ctx := context.Background()
	o := obs.NewObserver()
	e, nw := newSimEngine(Tunables{MaxInFlight: 8, HedgeMinSamples: 1}, o)
	o.SetClock(nw.Now)
	warm(e, "cspa", 8, 10*time.Millisecond)

	nw.Run(func() {
		if got := e.HedgeAfter(ctx, "cspa", 100*time.Millisecond); got == 0 {
			t.Error("idle engine suppressed a hedge")
		}
		// 14 attempts on one provider: 4 in flight (PerCSP), 10 queued,
		// past 0.75 x 8.
		drain := park(e, nw, "cspz", 14, time.Second)
		if q := e.QueueDepth(); q != 10 {
			t.Errorf("QueueDepth = %d, want 10", q)
		}
		if got := e.HedgeAfter(ctx, "cspa", 100*time.Millisecond); got != 0 {
			t.Errorf("overloaded engine armed a hedge: HedgeAfter = %v, want 0", got)
		}
		if st := e.HedgeState("cspa"); st != "load" {
			t.Errorf("HedgeState = %q, want load", st)
		}
		if e.LoadPermits() {
			t.Error("LoadPermits = true past the crossover")
		}
		drain()
		if got := e.HedgeAfter(ctx, "cspa", 100*time.Millisecond); got == 0 {
			t.Error("drained engine still suppressed")
		}
	})
	p, ok := o.Registry().Snapshot().Find(obs.MetricHedgeSuppressed, map[string]string{"csp": "cspa", "reason": "load"})
	if !ok || p.Value < 1 {
		t.Fatalf("hedge_suppressed{cspa,load} = %v %v, want >= 1", p.Value, ok)
	}

	// Negative threshold disables suppression entirely.
	off, nw2 := newSimEngine(Tunables{MaxInFlight: 8, HedgeLoadThreshold: -1, HedgeMinSamples: 1}, o)
	warm(off, "cspa", 1, 10*time.Millisecond)
	nw2.Run(func() {
		drain := park(off, nw2, "cspz", 14, time.Second)
		if got := off.HedgeAfter(ctx, "cspa", 100*time.Millisecond); got == 0 {
			t.Error("HedgeLoadThreshold<0 did not disable suppression")
		}
		drain()
	})
}

// TestHedgeDeadlineTracksLoad: the trigger delay scales with the
// provider's in-flight attempts — expected x (1 + inFlight), the Ghosh
// predicted completion — instead of the open-loop EWMA multiple.
func TestHedgeDeadlineTracksLoad(t *testing.T) {
	ctx := context.Background()
	o := obs.NewObserver()
	e, nw := newSimEngine(Tunables{HedgeMultiple: 3, HedgeMinSamples: 1}, o)
	warm(e, "cspa", 4, 10*time.Millisecond)

	nw.Run(func() {
		idle := e.HedgeAfter(ctx, "cspa", 100*time.Millisecond)
		if idle != 300*time.Millisecond {
			t.Errorf("idle deadline = %v, want 300ms", idle)
		}
		drain := park(e, nw, "cspa", 3, time.Second)
		if loaded := e.HedgeAfter(ctx, "cspa", 100*time.Millisecond); loaded != 4*idle {
			t.Errorf("deadline under 3 in flight = %v, want %v", loaded, 4*idle)
		}
		drain()
		if got := e.HedgeAfter(ctx, "cspa", 100*time.Millisecond); got != idle {
			t.Errorf("drained deadline = %v, want %v", got, idle)
		}
	})

	// HedgeStatic restores the open-loop deadline regardless of load.
	st, nw2 := newSimEngine(Tunables{HedgeMultiple: 3, HedgeStatic: true}, o)
	nw2.Run(func() {
		drain := park(st, nw2, "cspa", 3, time.Second)
		if got := st.HedgeAfter(ctx, "cspa", 100*time.Millisecond); got != 300*time.Millisecond {
			t.Errorf("static deadline = %v, want 300ms", got)
		}
		drain()
	})
}

// TestHedgeAdaptiveMultiple: hedge outcomes folded into the provider
// record move the engine's deadline — wins shrink the multiple, losses
// stretch it, within [base/2, base x 4] — per provider.
func TestHedgeAdaptiveMultiple(t *testing.T) {
	ctx := context.Background()
	e, _ := newSimEngine(Tunables{HedgeMultiple: 3, HedgeMinSamples: 1}, obs.NewObserver())
	warm(e, "cspa", 1, 10*time.Millisecond)
	warm(e, "cspb", 1, 10*time.Millisecond)
	if got := e.HedgeMultipleFor("cspa"); got != 3 {
		t.Fatalf("fresh multiple = %v, want base 3", got)
	}
	e.providers.HedgeOutcome("cspa", true, 3)
	if got := e.HedgeMultipleFor("cspa"); got >= 3 {
		t.Fatalf("multiple after a win = %v, want < 3", got)
	}
	for i := 0; i < 100; i++ {
		e.providers.HedgeOutcome("cspa", true, 3)
	}
	if got := e.HedgeAfter(ctx, "cspa", 100*time.Millisecond); got != 150*time.Millisecond {
		t.Fatalf("win-saturated deadline = %v, want floor 1.5 x 100ms", got)
	}
	for i := 0; i < 100; i++ {
		e.providers.HedgeOutcome("cspa", false, 3)
	}
	if got := e.HedgeAfter(ctx, "cspa", 100*time.Millisecond); got != 1200*time.Millisecond {
		t.Fatalf("loss-saturated deadline = %v, want cap 12 x 100ms", got)
	}
	if got := e.HedgeAfter(ctx, "cspb", 100*time.Millisecond); got != 300*time.Millisecond {
		t.Fatalf("untouched provider deadline = %v, want base 3 x 100ms", got)
	}
}

// TestSharedObserverQueueIsolation: two engines share one Observer, the
// way clients share one in the chaos harness. Engine A's admission queue
// is past the crossover; idle engine B must still permit redundancy and
// arm its hedges, because the load vector that decides is B's own.
func TestSharedObserverQueueIsolation(t *testing.T) {
	ctx := context.Background()
	o := obs.NewObserver()
	a, nw := newSimEngine(Tunables{MaxInFlight: 8, HedgeMinSamples: 1}, o)
	b := New(Config{Runtime: nw, Obs: o, Tunables: Tunables{MaxInFlight: 8, HedgeMinSamples: 1}})
	warm(a, "cspa", 8, 10*time.Millisecond)
	warm(b, "cspa", 8, 10*time.Millisecond)

	nw.Run(func() {
		drain := park(a, nw, "cspz", 14, time.Second) // A: queue 10 >= 0.75 x 8
		if a.LoadPermits() || a.HedgeState("cspa") != "load" {
			t.Errorf("saturated engine A: LoadPermits = %v, HedgeState = %q, want false, load", a.LoadPermits(), a.HedgeState("cspa"))
		}
		if !b.LoadPermits() {
			t.Error("idle engine B: LoadPermits = false (read A's queue)")
		}
		if st := b.HedgeState("cspa"); st != "" {
			t.Errorf("idle engine B: HedgeState = %q, want \"\"", st)
		}
		if got := b.HedgeAfter(ctx, "cspa", 100*time.Millisecond); got == 0 {
			t.Error("idle engine B: HedgeAfter = 0 (suppressed by A's load)")
		}
		drain()
	})
}

// TestSharedObserverInFlightIsolation: engine A's in-flight attempts at a
// provider must not stretch idle engine B's hedge deadline for it.
func TestSharedObserverInFlightIsolation(t *testing.T) {
	ctx := context.Background()
	o := obs.NewObserver()
	a, nw := newSimEngine(Tunables{HedgeMultiple: 3, HedgeMinSamples: 1}, o)
	b := New(Config{Runtime: nw, Obs: o, Tunables: Tunables{HedgeMultiple: 3, HedgeMinSamples: 1}})
	warm(b, "cspa", 4, 10*time.Millisecond)

	nw.Run(func() {
		drain := park(a, nw, "cspa", 3, time.Second) // A: 3 in flight at cspa
		if got := b.HedgeAfter(ctx, "cspa", 100*time.Millisecond); got != 300*time.Millisecond {
			t.Errorf("idle engine B deadline = %v, want 300ms (A's in-flight leaked in)", got)
		}
		drain()
	})
}

// TestQueueDepthLive: the engine's load reads are its live counters, not
// the observer's sampled window, which can lag by up to SampleInterval.
func TestQueueDepthLive(t *testing.T) {
	o := obs.NewObserverWith(obs.Options{Load: obs.LoadConfig{Window: 8, SampleInterval: time.Hour}})
	e, nw := newSimEngine(Tunables{MaxInFlight: 8, PerCSP: 2}, o)
	o.SetClock(nw.Now)
	if q := e.QueueDepth(); q != 0 {
		t.Fatalf("fresh engine QueueDepth = %d, want 0", q)
	}
	nw.Run(func() {
		drain := park(e, nw, "cspa", 5, time.Second) // 2 in flight, 3 queued
		if q := e.QueueDepth(); q != 3 {
			t.Errorf("QueueDepth = %d, want 3", q)
		}
		if in, _ := e.sem.load("cspa"); in != 2 {
			t.Errorf("in flight = %d, want 2", in)
		}
		// The window retained only the first admission's sample.
		for _, l := range o.LoadStats() {
			if l.CSP == "cspa" && (len(l.Window) != 1 || l.Current.InFlight != 1) {
				t.Errorf("window = %+v, want the single gated first sample", l.Window)
			}
		}
		drain()
	})
	if q := e.QueueDepth(); q != 0 {
		t.Errorf("drained QueueDepth = %d, want 0", q)
	}
}

// TestHedgeOutcomeAccounting: a backup win and a wasted hedge both feed
// the per-CSP win/loss counters and move the adaptive multiple.
func TestHedgeOutcomeAccounting(t *testing.T) {
	o := obs.NewObserver()
	e, nw := newSimEngine(Tunables{Attempts: 1}, o)
	o.SetClock(nw.Now)

	nw.Run(func() {
		op := e.Begin(context.Background())
		defer op.Finish()

		// Slow primary, fast backup: the backup wins.
		slow := Attempt{CSP: "slowcsp", Kind: "download", Run: func(ctx context.Context) (int64, error) {
			nw.Sleep(500 * time.Millisecond)
			return 1, nil
		}}
		backup := func() (Attempt, bool) {
			return sleepAttempt(nw, "fastcsp", time.Millisecond), true
		}
		if err := op.Hedged(op.Context(), slow, 10*time.Millisecond, backup); err != nil {
			t.Errorf("hedged (backup wins): %v", err)
		}

		// Fast primary, slow backup: the hedge launches and is wasted.
		fast := sleepAttempt(nw, "okcsp", 50*time.Millisecond)
		slowBackup := func() (Attempt, bool) {
			return sleepAttempt(nw, "slowcsp", time.Second), true
		}
		if err := op.Hedged(op.Context(), fast, 10*time.Millisecond, slowBackup); err != nil {
			t.Errorf("hedged (primary wins): %v", err)
		}
	})

	s := o.Registry().Snapshot()
	if p, ok := s.Find(obs.MetricHedgeWins, map[string]string{"csp": "slowcsp"}); !ok || p.Value != 1 {
		t.Errorf("hedge_wins{slowcsp} = %v %v, want 1", p.Value, ok)
	}
	if p, ok := s.Find(obs.MetricHedgeLosses, map[string]string{"csp": "okcsp"}); !ok || p.Value != 1 {
		t.Errorf("hedge_losses{okcsp} = %v %v, want 1", p.Value, ok)
	}
	if got, base := e.HedgeMultipleFor("slowcsp"), 3.0; got >= base {
		t.Errorf("winner's primary multiple = %v, want < %v", got, base)
	}
	if got, base := e.HedgeMultipleFor("okcsp"), 3.0; got <= base {
		t.Errorf("loser's primary multiple = %v, want > %v", got, base)
	}
}

// TestRaceQuorum: a 2-of-3 race resolves on the second success, losers
// drain afterwards, and late completions are accounted as cancelled-byte
// waste.
func TestRaceQuorum(t *testing.T) {
	o := obs.NewObserver()
	e, nw := newSimEngine(Tunables{Attempts: 1}, o)
	o.SetClock(nw.Now)

	att := func(name string, d time.Duration, bytes int64) Attempt {
		return Attempt{CSP: name, Kind: "download", Run: func(ctx context.Context) (int64, error) {
			nw.Sleep(d)
			return bytes, nil
		}}
	}
	var resolved time.Duration
	nw.Run(func() {
		op := e.Begin(context.Background())
		defer op.Finish()
		start := nw.Now()
		atts := []Attempt{
			att("cspa", 10*time.Millisecond, 100),
			att("cspb", 20*time.Millisecond, 100),
			att("cspc", 500*time.Millisecond, 100),
		}
		if err := op.Race(op.Context(), atts, 2, 0, nil); err != nil {
			t.Errorf("race: %v", err)
		}
		resolved = nw.Now().Sub(start)
		// Let the loser drain so its waste is recorded.
		nw.Sleep(time.Second)
	})

	if resolved > 100*time.Millisecond {
		t.Errorf("race resolved after %v, want ~20ms (did it wait for the loser?)", resolved)
	}
	s := o.Registry().Snapshot()
	if p, ok := s.Find(obs.MetricRaceCancelledBytes, map[string]string{"csp": "cspc"}); !ok || p.Value != 100 {
		t.Errorf("race_cancelled_bytes{cspc} = %v %v, want 100", p.Value, ok)
	}
}

// TestRaceRedundantLane: extra lanes pull from the candidate supply at
// t=0, are counted as launched, and let the race survive a primary that
// never answers usefully.
func TestRaceRedundantLane(t *testing.T) {
	o := obs.NewObserver()
	e, nw := newSimEngine(Tunables{Attempts: 1}, o)
	o.SetClock(nw.Now)

	nw.Run(func() {
		op := e.Begin(context.Background())
		defer op.Finish()
		atts := []Attempt{
			sleepAttempt(nw, "cspa", 10*time.Millisecond),
			{CSP: "deadcsp", Kind: "download", Run: func(ctx context.Context) (int64, error) {
				return 0, csp.ErrUnavailable
			}},
		}
		served := false
		next := func() (Attempt, bool) {
			if served {
				return Attempt{}, false
			}
			served = true
			return sleepAttempt(nw, "cspb", 15*time.Millisecond), true
		}
		if err := op.Race(op.Context(), atts, 2, 1, next); err != nil {
			t.Errorf("race with redundant lane: %v", err)
		}
	})

	s := o.Registry().Snapshot()
	if p, ok := s.Find(obs.MetricRaceLaunched, map[string]string{"csp": "cspb"}); !ok || p.Value != 1 {
		t.Errorf("race_launched{cspb} = %v %v, want 1", p.Value, ok)
	}
}

// TestRaceExhaustion: fewer successes than the quorum yields the last
// meaningful provider error.
func TestRaceExhaustion(t *testing.T) {
	e, nw := newSimEngine(Tunables{Attempts: 1}, nil)
	nw.Run(func() {
		op := e.Begin(context.Background())
		defer op.Finish()
		atts := []Attempt{
			sleepAttempt(nw, "cspa", time.Millisecond),
			{CSP: "deadcsp", Kind: "download", Run: func(ctx context.Context) (int64, error) {
				return 0, csp.ErrUnavailable
			}},
		}
		err := op.Race(op.Context(), atts, 2, 0, func() (Attempt, bool) { return Attempt{}, false })
		if err == nil {
			t.Error("race below quorum returned nil")
		}
	})
}

// TestRaceSuppressedExtras: past the load crossover, redundant lanes are
// not launched — the race degrades to the primary fan-out.
func TestRaceSuppressedExtras(t *testing.T) {
	o := obs.NewObserver()
	e, nw := newSimEngine(Tunables{MaxInFlight: 8, Attempts: 1}, o)
	o.SetClock(nw.Now)

	nw.Run(func() {
		drain := park(e, nw, "cspz", 14, time.Second) // queue 10, past 0.75 x 8
		op := e.Begin(context.Background())
		defer op.Finish()
		atts := []Attempt{sleepAttempt(nw, "cspa", time.Millisecond)}
		err := op.Race(op.Context(), atts, 1, 2, func() (Attempt, bool) {
			return sleepAttempt(nw, "cspb", time.Millisecond), true
		})
		if err != nil {
			t.Errorf("race: %v", err)
		}
		drain()
	})

	if p, ok := o.Registry().Snapshot().Find(obs.MetricRaceLaunched, map[string]string{"csp": "cspb"}); ok && p.Value != 0 {
		t.Errorf("race_launched{cspb} = %v under load, want 0", p.Value)
	}
}
