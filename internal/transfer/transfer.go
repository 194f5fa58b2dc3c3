// Package transfer is the CYRUS client's single dispatch path for all
// provider I/O: chunk-share scatter/gather, metadata reads and writes,
// migration uploads, probes, and deletes all route through one Engine
// (ROADMAP: consolidate the four hand-rolled fan-outs).
//
// The engine provides, in one place, what each call site used to
// approximate independently:
//
//   - a bounded global in-flight limit plus a per-CSP in-flight limit, so
//     one slow provider cannot absorb the client's whole concurrency
//     budget (the paper's straggler regime);
//   - a retry policy driven by the csp error taxonomy — transient errors
//     (csp.ErrUnavailable and unclassified transport faults) retry with
//     exponential backoff and deterministic jitter on the client's
//     vclock.Runtime, so netsim experiments replay byte-identically;
//   - a per-operation failed-provider set (Op): once a provider burns its
//     retries, sibling shares of the same operation skip it instead of
//     re-probing it from scratch;
//   - first-error cancellation (Op.Fail cancels the operation context, so
//     doomed sibling transfers stop instead of finishing wasted work);
//   - hedged downloads: when a source exceeds its expected latency, a
//     single backup attempt is launched from the next candidate and the
//     first success wins.
//
// Everything blocks only through vclock.Runtime primitives (Group.Wait,
// Sleep) — never on raw channels — so the engine is safe under netsim
// virtual time.
package transfer

import (
	"context"
	"errors"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"repro/internal/csp"
	"repro/internal/obs"
	"repro/internal/reliability"
	"repro/internal/vclock"
)

// ErrSkipped is returned by Op.Do when the target provider already
// exhausted its retries earlier in the same operation: the attempt was
// not made, and the caller should walk to its next candidate.
var ErrSkipped = errors.New("transfer: provider skipped (failed earlier in this operation)")

// Tunables bound the engine's scheduling and retry behavior. Zero values
// take the documented defaults.
type Tunables struct {
	// MaxInFlight caps concurrently executing attempts across all
	// providers. Default 32.
	MaxInFlight int
	// PerCSP caps concurrently executing attempts per provider. Default 4.
	PerCSP int
	// Attempts is how many times a transient failure is tried per
	// provider (1 = no retry). Default 2.
	Attempts int
	// BaseBackoff is the delay before the first retry; it doubles per
	// attempt up to MaxBackoff. Default 25ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff growth. Default 2s.
	MaxBackoff time.Duration
	// HedgeMultiple scales the expected attempt latency into the hedge
	// trigger delay: a backup download launches after
	// HedgeMultiple x expected. Default 3. Under the load-adaptive
	// controller this is the starting point the per-CSP effective
	// multiple is tuned from.
	HedgeMultiple float64
	// DisableHedge turns hedged downloads off (the attempt-walk falls
	// back to sequential failover).
	DisableHedge bool
	// HedgeLoadThreshold is the Ghosh-crossover utilization bound: hedges
	// and redundant race lanes are suppressed once the global admission
	// queue holds HedgeLoadThreshold x MaxInFlight waiting attempts.
	// Past that point a redundant request joins the congestion it is
	// trying to dodge. Default 0.75; negative disables suppression.
	HedgeLoadThreshold float64
	// HedgeMinSamples arms hedging against a provider only after this
	// many successful contacts have fed its latency EWMA — the cold-start
	// guard: an EWMA seeded from one anomalously fast sample would
	// otherwise hedge nearly every request. Default 8; negative arms
	// immediately.
	HedgeMinSamples int
	// HedgeStatic restores the open-loop HedgeMultiple x expected
	// deadline — no load feedback, no cold-start arming, no adaptive
	// multiple. It is the baseline policy the redundancy experiments
	// compare the closed loop against.
	HedgeStatic bool
	// HedgeFixed, when positive, arms every hedge with this constant
	// trigger delay — the operator-tuned fixed timeout real deployments
	// start from. Fully open loop: no expectation model, no load
	// feedback, no suppression. A delay tuned at low load turns into a
	// hedge storm when load rises past it, which is exactly what the
	// redundancy experiments use it to demonstrate.
	HedgeFixed time.Duration
}

// hedgeFloor is the minimum hedge delay: below this, scheduling noise
// (not provider slowness) dominates and hedging would just double load.
const hedgeFloor = 50 * time.Millisecond

func (t Tunables) withDefaults() Tunables {
	if t.MaxInFlight == 0 {
		t.MaxInFlight = 32
	}
	if t.PerCSP == 0 {
		t.PerCSP = 4
	}
	if t.PerCSP > t.MaxInFlight {
		t.PerCSP = t.MaxInFlight
	}
	if t.Attempts == 0 {
		t.Attempts = 2
	}
	if t.BaseBackoff == 0 {
		t.BaseBackoff = 25 * time.Millisecond
	}
	if t.MaxBackoff == 0 {
		t.MaxBackoff = 2 * time.Second
	}
	if t.HedgeMultiple == 0 {
		t.HedgeMultiple = 3
	}
	if t.HedgeLoadThreshold == 0 {
		t.HedgeLoadThreshold = 0.75
	}
	if t.HedgeMinSamples == 0 {
		t.HedgeMinSamples = 8
	}
	return t
}

// Config wires an Engine to its host client.
type Config struct {
	// Runtime supplies concurrency and time; required (core passes its
	// own, so production and netsim runs share this code path).
	Runtime vclock.Runtime
	// Obs receives the engine metrics (queue depth, in-flight gauges,
	// retry and hedge counters) and the per-attempt spans. nil disables
	// instrumentation.
	Obs *obs.Observer
	// Report is called once per finished attempt with the provider name,
	// the operation kind, the outcome, payload bytes, and elapsed time on
	// the Runtime clock — core points this at recordResult, which folds
	// the attempt into Providers. Optional.
	Report func(cspName, kind string, err error, bytes int64, elapsed time.Duration)
	// Providers is the client's per-provider record. The hedger reads its
	// latency sample counts and adaptive multiples from it and feeds hedge
	// outcomes back; the client keeps the rest of it current through
	// Report. nil gives the engine a private, empty record.
	Providers *reliability.Estimator
	// Tunables bound scheduling and retries.
	Tunables Tunables
}

// Engine schedules provider attempts. One engine per client; safe for
// concurrent use.
type Engine struct {
	rt        vclock.Runtime
	obs       *obs.Observer
	report    func(cspName, kind string, err error, bytes int64, elapsed time.Duration)
	providers *reliability.Estimator
	tun       Tunables
	sem       *semaphore
}

// New builds an engine. Config.Runtime is required.
func New(cfg Config) *Engine {
	if cfg.Runtime == nil {
		cfg.Runtime = vclock.Real()
	}
	if cfg.Providers == nil {
		cfg.Providers = reliability.NewEstimator(0, nil)
	}
	tun := cfg.Tunables.withDefaults()
	return &Engine{
		rt:        cfg.Runtime,
		obs:       cfg.Obs,
		report:    cfg.Report,
		providers: cfg.Providers,
		tun:       tun,
		sem:       newSemaphore(cfg.Runtime, cfg.Obs, cfg.Providers, tun.MaxInFlight, tun.PerCSP),
	}
}

// Tunables returns the engine's effective (defaulted) tunables.
func (e *Engine) Tunables() Tunables { return e.tun }

// PeakInFlight returns the highest concurrent in-flight attempt count the
// engine has observed for one provider — the deterministic witness the
// per-CSP cap tests assert on.
func (e *Engine) PeakInFlight(cspName string) int { return e.sem.peakInFlight(cspName) }

// HedgeAfter lives in hedge.go: it converts an expected attempt latency
// into the load-adaptive hedge trigger delay for one provider.

// Attempt is one provider contact. Run performs the I/O and returns the
// payload byte count (uploads report the intended payload size even on
// failure, mirroring the pre-engine accounting). Done, when set, is
// invoked after every execution of Run — including retries — with the
// outcome; call sites use it to emit their transfer events.
type Attempt struct {
	CSP  string
	Kind string // one of core's recordResult op identifiers ("upload", "download", ...)
	Run  func(ctx context.Context) (bytes int64, err error)
	Done func(err error, bytes int64, elapsed time.Duration)
}

// Retryable classifies an attempt error: transient provider trouble
// (csp.ErrUnavailable, unclassified transport errors) is worth retrying
// on the same provider; definite answers (missing object, bad
// credentials, full provider, existing object) and context cancellation
// are not.
func Retryable(err error) bool {
	switch {
	case err == nil,
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, csp.ErrNotFound),
		errors.Is(err, csp.ErrUnauthorized),
		errors.Is(err, csp.ErrOverCapacity),
		errors.Is(err, csp.ErrExists):
		return false
	}
	return true
}

// ProviderFault reports whether an attempt error indicts the provider
// (feeding the per-operation failed set). Context cancellation says
// nothing about the provider, and a missing object is a valid answer.
func ProviderFault(err error) bool {
	switch {
	case err == nil,
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, csp.ErrNotFound):
		return false
	}
	return true
}

// Op is one client operation's view of the engine: a cancellable scope, a
// shared failed-provider set, and fan-out helpers. Create with Begin,
// release with Finish.
type Op struct {
	e      *Engine
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	failed   map[string]bool
	firstErr error
}

// Begin opens an operation scope derived from ctx.
func (e *Engine) Begin(ctx context.Context) *Op {
	cctx, cancel := context.WithCancel(ctx)
	return &Op{e: e, ctx: cctx, cancel: cancel, failed: make(map[string]bool)}
}

// Context returns the operation context; it is cancelled by Fail and
// Finish. Derive spans and pass the result to Do/Hedged so attempt spans
// nest correctly.
func (o *Op) Context() context.Context { return o.ctx }

// Finish releases the operation's context resources. Always defer it.
func (o *Op) Finish() { o.cancel() }

// Fail records the operation's first fatal error and cancels the
// operation context, aborting sibling transfers (first-error
// cancellation). Later calls keep the first error.
func (o *Op) Fail(err error) {
	if err == nil {
		return
	}
	o.mu.Lock()
	if o.firstErr == nil {
		o.firstErr = err
	}
	o.mu.Unlock()
	o.cancel()
}

// Err returns the first fatal error recorded by Fail, or nil.
func (o *Op) Err() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.firstErr
}

// MarkFailed adds a provider to the operation's failed set.
func (o *Op) MarkFailed(cspName string) {
	o.mu.Lock()
	o.failed[cspName] = true
	o.mu.Unlock()
}

// Failed reports whether a provider is in the operation's failed set.
func (o *Op) Failed(cspName string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.failed[cspName]
}

// Each runs fn(0..n-1) concurrently on the engine's runtime and joins.
// Concurrency of the actual I/O is bounded by the engine's semaphore, not
// by the fan-out width.
func (o *Op) Each(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	g := o.e.rt.NewGroup()
	for i := 0; i < n; i++ {
		i := i
		g.Add(1)
		o.e.rt.Go(func() {
			defer g.Done()
			fn(i)
		})
	}
	g.Wait()
}

// Batch dispatches the attempts concurrently through the operation — same
// slot bounding, retry policy, and shared failed set as Do — and returns
// one error slot per attempt (nil on success). It is the fan-out primitive
// for flows that need every per-provider outcome rather than first-error
// cancellation: dedup existence probes and refcount maintenance, where a
// miss (csp.ErrNotFound) on one provider is an answer, not a failure.
func (o *Op) Batch(ctx context.Context, atts []Attempt) []error {
	errs := make([]error, len(atts))
	o.Each(len(atts), func(i int) {
		errs[i] = o.Do(ctx, atts[i])
	})
	return errs
}

// Do executes one attempt under the operation: it skips providers in the
// failed set (ErrSkipped), acquires the per-CSP and global in-flight
// slots, runs with retry/backoff per the engine's policy, reports every
// try, and on final provider-fault failure adds the provider to the
// failed set. ctx must descend from Context() (pass a span-wrapped child
// for trace nesting).
func (o *Op) Do(ctx context.Context, a Attempt) error {
	if o.Failed(a.CSP) {
		return ErrSkipped
	}
	return o.e.do(ctx, o, a)
}

func (e *Engine) do(ctx context.Context, o *Op, a Attempt) error {
	var lastErr error
	for try := 0; ; try++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return lastErr
			}
			return err
		}
		e.sem.acquire(a.CSP)
		sctx, sp := e.obs.Trace(ctx, "csp."+a.Kind)
		e.obs.AttemptStart(sctx, a.CSP, a.Kind, try)
		start := e.rt.Now()
		bytes, err := a.Run(ctx)
		elapsed := e.rt.Now().Sub(start)
		e.obs.AttemptEnd(sctx, a.CSP, a.Kind, try, bytes, elapsed, err)
		sp.End(err)
		e.sem.release(a.CSP)
		if e.report != nil {
			e.report(a.CSP, a.Kind, err, bytes, elapsed)
		}
		if a.Done != nil {
			a.Done(err, bytes, elapsed)
		}
		if err == nil {
			e.sem.contact(a.CSP)
			return nil
		}
		lastErr = err
		if !Retryable(err) || try+1 >= e.tun.Attempts || ctx.Err() != nil {
			break
		}
		e.obs.TransferRetry(ctx, a.CSP, a.Kind)
		e.rt.Sleep(e.backoff(a.CSP, a.Kind, try))
	}
	if ProviderFault(lastErr) {
		o.MarkFailed(a.CSP)
	}
	return lastErr
}

// backoff returns the delay before retry number try+1: exponential growth
// from BaseBackoff capped at MaxBackoff, with +/-25% jitter derived from
// a hash of (csp, kind, try) — deterministic, so netsim runs replay
// identically regardless of goroutine interleaving, yet decorrelated
// across providers and shares.
func (e *Engine) backoff(cspName, kind string, try int) time.Duration {
	d := e.tun.BaseBackoff << uint(try)
	if d > e.tun.MaxBackoff || d <= 0 {
		d = e.tun.MaxBackoff
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(cspName))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(kind))
	_, _ = h.Write([]byte{byte(try)})
	frac := float64(h.Sum32()) / float64(math.MaxUint32) // [0, 1]
	return time.Duration(float64(d) * (0.75 + 0.5*frac))
}

// Hedged runs a download-style attempt with sequential failover plus one
// latency hedge: the primary attempt runs under Do semantics; if it fails
// the next candidate from next() takes over; and when hedgeAfter > 0, a
// watchdog launches a single concurrent backup attempt from next() once
// hedgeAfter elapses without a result. The first success cancels the
// other lane and wins. Returns nil on any success, the last meaningful
// error when every candidate is exhausted.
//
// Both lanes run detached from the caller, which blocks only on the
// first-success latch: Hedged returns the moment either lane wins, even
// while the loser's transfer is still draining (netsim transfers are not
// interruptible mid-flight). The loser's Run may therefore execute after
// Hedged returns — callers must guard attempt side effects with their own
// mutex and snapshot shared state before consuming it.
func (o *Op) Hedged(ctx context.Context, a Attempt, hedgeAfter time.Duration, next func() (Attempt, bool)) error {
	e := o.e
	if e.tun.DisableHedge {
		hedgeAfter = 0
	}
	primaryCSP := a.CSP
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()

	var mu sync.Mutex
	var lastErr error
	success := false
	finished := false
	launched := false
	lanes := 1
	latch := e.rt.NewGroup()
	latch.Add(1)

	// pull serializes the caller's candidate source across lanes.
	pull := func() (Attempt, bool) {
		mu.Lock()
		defer mu.Unlock()
		return next()
	}

	// lane walks candidates until one succeeds or the supply runs dry.
	var lane func(first *Attempt, backup bool)
	lane = func(first *Attempt, backup bool) {
		att := first
		for {
			if hctx.Err() != nil {
				break
			}
			if att == nil {
				b, ok := pull()
				if !ok {
					break
				}
				att = &b
			}
			err := o.Do(hctx, *att)
			if err == nil {
				mu.Lock()
				if !finished {
					finished = true
					success = true
					if backup {
						// Recorded before the latch opens so the caller
						// observes the win as soon as Hedged returns.
						e.obs.TransferHedge(hctx, "win")
						e.obs.HedgeOutcome(hctx, primaryCSP, true)
						e.providers.HedgeOutcome(primaryCSP, true, e.tun.HedgeMultiple)
					} else if launched {
						// The backup launched but the primary won anyway:
						// the redundant request was waste. The adaptive
						// controller stretches this provider's effective
						// multiple so the next hedge fires later.
						e.obs.HedgeOutcome(hctx, primaryCSP, false)
						e.providers.HedgeOutcome(primaryCSP, false, e.tun.HedgeMultiple)
					}
					latch.Done()
				}
				mu.Unlock()
				hcancel()
				return
			}
			mu.Lock()
			if !errors.Is(err, context.Canceled) && !errors.Is(err, ErrSkipped) || lastErr == nil {
				lastErr = err
			}
			mu.Unlock()
			att = nil
		}
		mu.Lock()
		lanes--
		if lanes == 0 && !finished {
			finished = true
			latch.Done()
		}
		mu.Unlock()
	}

	if hedgeAfter > 0 {
		// Watchdog: fire one backup lane if nothing resolved in time. It
		// is deliberately not joined — after a win it wakes, observes
		// finished, and exits on its own.
		e.rt.Go(func() {
			e.rt.Sleep(hedgeAfter)
			mu.Lock()
			fire := !finished && !launched
			if fire {
				launched = true
				lanes++
			}
			mu.Unlock()
			if !fire {
				return
			}
			e.obs.TransferHedge(hctx, "launched")
			lane(nil, true)
		})
	}

	e.rt.Go(func() { lane(&a, false) })
	latch.Wait()

	mu.Lock()
	defer mu.Unlock()
	if success {
		return nil
	}
	if lastErr == nil {
		lastErr = ctx.Err()
	}
	if lastErr == nil {
		lastErr = errors.New("transfer: no candidate providers")
	}
	return lastErr
}
