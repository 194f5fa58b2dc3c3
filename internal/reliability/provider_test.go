package reliability

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

var errUnreachable = errors.New("unreachable")

// succeed and fail feed one contact and return the down state after it and
// whether the call flipped it.
func succeed(e *Estimator, csp string, at time.Time) (down, changed bool) {
	h, changed := e.Record(csp, Contact{At: at})
	return h.Down, changed
}

func fail(e *Estimator, csp string, at time.Time) (down, changed bool) {
	h, changed := e.Record(csp, Contact{At: at, Err: errUnreachable, Outage: true})
	return h.Down, changed
}

func TestEstimatorOutageDetection(t *testing.T) {
	e := NewEstimator(24*time.Hour, nil)
	t0 := time.Date(2014, 7, 1, 0, 0, 0, 0, time.UTC)

	fail(e, "box", t0)
	if e.Down("box") {
		t.Fatal("down after a single failure")
	}
	fail(e, "box", t0.Add(12*time.Hour))
	if e.Down("box") {
		t.Fatal("down before threshold elapsed")
	}
	fail(e, "box", t0.Add(25*time.Hour))
	if !e.Down("box") {
		t.Fatal("not down after threshold of consistent failures")
	}
	if e.Failures("box") != 1 {
		t.Fatalf("failures = %d, want 1", e.Failures("box"))
	}
	// Still one episode while the outage continues.
	fail(e, "box", t0.Add(30*time.Hour))
	if e.Failures("box") != 1 {
		t.Fatalf("failures = %d, want 1 (same episode)", e.Failures("box"))
	}
	// Recovery clears down state.
	succeed(e, "box", t0.Add(31*time.Hour))
	if e.Down("box") {
		t.Fatal("down after success")
	}
	// A new outage is a new episode.
	fail(e, "box", t0.Add(40*time.Hour))
	fail(e, "box", t0.Add(70*time.Hour))
	if e.Failures("box") != 2 {
		t.Fatalf("failures = %d, want 2", e.Failures("box"))
	}
}

// TestEstimatorTransitionReturns: Record reports the down state and
// whether the call transitioned it, atomically under the estimator's lock,
// so callers never pair a racy Down() read with the mutation.
func TestEstimatorTransitionReturns(t *testing.T) {
	e := NewEstimator(24*time.Hour, nil)
	t0 := time.Date(2014, 7, 1, 0, 0, 0, 0, time.UTC)

	if down, changed := fail(e, "box", t0); down || changed {
		t.Fatalf("first failure = (%v, %v), want (false, false)", down, changed)
	}
	if down, changed := fail(e, "box", t0.Add(25*time.Hour)); !down || !changed {
		t.Fatalf("threshold failure = (%v, %v), want (true, true)", down, changed)
	}
	// Already down: further failures are not transitions.
	if down, changed := fail(e, "box", t0.Add(30*time.Hour)); !down || changed {
		t.Fatalf("repeat failure while down = (%v, %v), want (true, false)", down, changed)
	}
	if down, changed := succeed(e, "box", t0.Add(31*time.Hour)); down || !changed {
		t.Fatalf("recovery = (%v, %v), want (false, true)", down, changed)
	}
	// Already up: further successes are not transitions.
	if down, changed := succeed(e, "box", t0.Add(32*time.Hour)); down || changed {
		t.Fatalf("repeat success while up = (%v, %v), want (false, false)", down, changed)
	}
}

func TestEstimatorInterruptedOutageDoesNotCount(t *testing.T) {
	e := NewEstimator(24*time.Hour, nil)
	t0 := time.Now()
	fail(e, "s3", t0)
	succeed(e, "s3", t0.Add(12*time.Hour))
	fail(e, "s3", t0.Add(13*time.Hour))
	fail(e, "s3", t0.Add(30*time.Hour)) // only 17h of consistent failure
	if e.Down("s3") {
		t.Fatal("interrupted failures counted as outage")
	}
}

func TestEstimatorFailureProb(t *testing.T) {
	e := NewEstimator(time.Hour, nil)
	if got := e.FailureProb("none", 0.42); got != 0.42 {
		t.Fatalf("fallback = %g", got)
	}
	now := time.Now()
	succeed(e, "a", now)
	succeed(e, "a", now)
	fail(e, "a", now)
	succeed(e, "a", now)
	if got := e.FailureProb("a", 0); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("FailureProb = %g, want 0.25", got)
	}
}

func TestEstimatorMaxFailureProb(t *testing.T) {
	e := NewEstimator(time.Hour, nil)
	now := time.Now()
	succeed(e, "a", now)
	fail(e, "b", now)
	succeed(e, "b", now)
	got := e.MaxFailureProb([]string{"a", "b", "missing"}, 0.01)
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("MaxFailureProb = %g, want 0.5", got)
	}
	if got := e.MaxFailureProb(nil, 0.07); got != 0.07 {
		t.Fatalf("empty MaxFailureProb = %g, want fallback", got)
	}
}

func TestEstimatorTracked(t *testing.T) {
	e := NewEstimator(time.Hour, map[string]float64{"seeded": 1 << 20})
	now := time.Now()
	succeed(e, "zeta", now)
	fail(e, "alpha", now)
	e.Down("ghost") // a query is not a contact
	got := e.Tracked()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Fatalf("Tracked = %v", got)
	}
}

// TestEstimatorNonOutageFailure: an error that is an answer (a missing
// object) counts in the health row but not toward outage detection or the
// failure probability.
func TestEstimatorNonOutageFailure(t *testing.T) {
	e := NewEstimator(time.Hour, nil)
	t0 := time.Now()
	succeed(e, "a", t0)
	for i := 0; i < 3; i++ {
		e.Record("a", Contact{At: t0.Add(time.Duration(i) * 2 * time.Hour), Err: errors.New("not found")})
	}
	if e.Down("a") || e.FailureProb("a", 0.5) != 0 {
		t.Fatalf("answer errors fed the outage model: down=%v p=%v", e.Down("a"), e.FailureProb("a", 0.5))
	}
	h := e.Snapshot()[0]
	if h.Successes != 1 || h.Failures != 3 || h.LastError != "not found" {
		t.Fatalf("row = %+v, want 1 success, 3 failures, last error kept", h)
	}
	succeed(e, "a", t0)
	if h := e.Snapshot()[0]; h.LastError != "" || !h.LastContact.Equal(t0) {
		t.Fatalf("success did not clear the error or stamp the contact: %+v", h)
	}
}

// TestEstimatorLatencyEWMA: the first latency seeds the EWMA, later ones
// fold in at weight 0.3, and zero latencies (instant stores) count as
// samples without moving it.
func TestEstimatorLatencyEWMA(t *testing.T) {
	e := NewEstimator(time.Hour, nil)
	now := time.Now()
	e.Record("a", Contact{At: now})
	if got := e.Latency("a"); got != 0 {
		t.Fatalf("zero-latency contact moved the EWMA to %v", got)
	}
	e.Record("a", Contact{At: now, Elapsed: 100 * time.Millisecond})
	e.Record("a", Contact{At: now, Elapsed: 200 * time.Millisecond})
	// 0.1 seeded, then 0.7*0.1 + 0.3*0.2 = 0.13.
	if got := e.Snapshot()[0].LatencyEWMASeconds; math.Abs(got-0.13) > 1e-9 {
		t.Fatalf("latency EWMA = %v, want 0.13", got)
	}
	if got := e.Samples("a"); got != 3 {
		t.Fatalf("samples = %d, want 3 (zero-latency contacts count)", got)
	}
	if e.Latency("none") != 0 || e.Samples("none") != 0 {
		t.Fatal("unknown provider has latency state")
	}
}

// TestEstimatorBandwidth: downlink estimates start at the configured seed
// (or the 1 MB/s default), the first observed download replaces the seed,
// later ones fold in; uploads feed only the uplink estimate, which reads 0
// until observed. The health row shows the downlink once the provider has
// answered.
func TestEstimatorBandwidth(t *testing.T) {
	e := NewEstimator(time.Hour, map[string]float64{"seeded": 5e6, "bogus": -1})
	if got := e.Downlink("seeded"); got != 5e6 {
		t.Fatalf("seeded downlink = %v, want 5e6", got)
	}
	if got := e.Downlink("bogus"); got != defaultLinkBps {
		t.Fatalf("non-positive seed = %v, want the default", got)
	}
	if got := e.Downlink("unknown"); got != defaultLinkBps {
		t.Fatalf("unseeded downlink = %v, want the default", got)
	}
	now := time.Now()
	e.Record("seeded", Contact{At: now, Elapsed: time.Second, Bytes: 2e6, Link: Downlink})
	if got := e.Downlink("seeded"); got != 2e6 {
		t.Fatalf("first download = %v, want the observation 2e6 (seed replaced)", got)
	}
	e.Record("seeded", Contact{At: now, Elapsed: time.Second, Bytes: 4e6, Link: Downlink})
	if got := e.Downlink("seeded"); math.Abs(got-2.6e6) > 1e-3 {
		t.Fatalf("second download = %v, want 0.7*2e6 + 0.3*4e6", got)
	}
	e.Record("seeded", Contact{At: now, Elapsed: time.Second, Bytes: 1e6, Link: Uplink})
	e.Record("seeded", Contact{At: now, Bytes: 1e9, Link: Downlink}) // unmeasurable: ignored
	h := e.Snapshot()[0]
	if math.Abs(h.DownlinkBps-2.6e6) > 1e-3 || h.UplinkBps != 1e6 {
		t.Fatalf("row bandwidth = %v/%v, want 2.6e6/1e6", h.DownlinkBps, h.UplinkBps)
	}

	e.Record("failing", Contact{At: now, Err: errUnreachable, Outage: true})
	if h := e.Snapshot()[0]; h.CSP != "failing" || h.DownlinkBps != 0 || h.UplinkBps != 0 {
		t.Fatalf("never-answered row = %+v, want no bandwidth shown", h)
	}
}

// TestEstimatorHedgeMultiple: wins shrink a provider's multiple, losses
// stretch it, and both respect the [base/2, base x 4] bounds.
func TestEstimatorHedgeMultiple(t *testing.T) {
	e := NewEstimator(time.Hour, nil)
	if got := e.HedgeMultiple("cspa", 3); got != 3 {
		t.Fatalf("fresh multiple = %v, want base 3", got)
	}
	e.HedgeOutcome("cspa", true, 3)
	if got := e.HedgeMultiple("cspa", 3); got != 3*0.85 {
		t.Fatalf("multiple after a win = %v, want %v", got, 3*0.85)
	}
	for i := 0; i < 100; i++ {
		e.HedgeOutcome("cspa", true, 3)
	}
	if got := e.HedgeMultiple("cspa", 3); got != 1.5 {
		t.Fatalf("win-saturated multiple = %v, want floor 1.5", got)
	}
	e.HedgeOutcome("cspa", false, 3)
	if got := e.HedgeMultiple("cspa", 3); got != 1.5*1.25 {
		t.Fatalf("multiple after a loss = %v, want %v", got, 1.5*1.25)
	}
	for i := 0; i < 100; i++ {
		e.HedgeOutcome("cspa", false, 3)
	}
	if got := e.HedgeMultiple("cspa", 3); got != 12 {
		t.Fatalf("loss-saturated multiple = %v, want cap 12", got)
	}
	if got := e.HedgeMultiple("cspb", 3); got != 3 {
		t.Fatalf("untouched provider multiple = %v, want base 3", got)
	}
	if rows := e.Snapshot(); len(rows) != 0 {
		t.Fatalf("hedge outcomes alone created health rows: %+v", rows)
	}
}

// TestEstimatorConcurrent drives every entry point from several goroutines
// at once; under -race it is the record's synchronization check.
func TestEstimatorConcurrent(t *testing.T) {
	e := NewEstimator(time.Nanosecond, map[string]float64{"a": 1e6})
	csps := []string{"a", "b", "c"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := csps[g%len(csps)]
			now := time.Now()
			for i := 0; i < 200; i++ {
				switch i % 6 {
				case 0:
					e.Record(name, Contact{At: now, Elapsed: time.Millisecond, Bytes: 100, Link: Downlink})
				case 1:
					e.Record(name, Contact{At: now.Add(time.Duration(i)), Err: errUnreachable, Outage: true})
				case 2:
					e.HedgeOutcome(name, i%4 == 2, 3)
				case 3:
					_ = e.Snapshot()
				case 4:
					_ = e.MaxFailureProb(csps, 0.01)
				default:
					_, _, _ = e.Latency(name), e.Downlink(name), e.HedgeMultiple(name, 3)
				}
			}
		}(g)
	}
	wg.Wait()
	if rows := e.Snapshot(); len(rows) != len(csps) {
		t.Fatalf("snapshot has %d rows, want %d", len(rows), len(csps))
	}
}
