package transfer

import (
	"context"
	"time"
)

// Load-adaptive hedge scheduling: the actuator half of the redundancy
// control loop. Its inputs are the engine's own load vector — per-CSP
// in-flight attempts and the global admission-queue depth, read straight
// from the semaphore — and the client's provider record (the latency
// sample count and the adaptive hedge multiple):
//
//	semaphore ──► HedgeAfter ──► hedge watchdog (Op.Hedged) / race extras
//	                 ▲                   │
//	                 └─ provider record ─┘  (win/loss feedback)
//
// Three decisions are made per hedge, in order. (1) Arming: a provider
// whose EWMA was fed by fewer than HedgeMinSamples successes does not
// hedge at all — a cold estimate seeded from one fast sample would fire a
// hedge storm. (2) Suppression: past the Ghosh crossover (queue depth over
// HedgeLoadThreshold) redundancy is withheld entirely, because an extra
// request would join the congestion it is dodging. (3) Deadline: the
// trigger delay is the per-CSP adaptive multiple times the predicted
// completion under current load, expected x (1 + in-flight), not the
// open-loop HedgeMultiple x EWMA. Every input is a deterministic function
// of this engine's recorded transfer events, so netsim runs replay
// identically, and engines sharing an Observer never read each other's
// load.

// HedgeMultipleFor returns the effective (adaptively tuned) hedge multiple
// currently in force for one provider — observability for tests and tools.
func (e *Engine) HedgeMultipleFor(cspName string) float64 {
	return e.providers.HedgeMultiple(cspName, e.tun.HedgeMultiple)
}

// HedgeAfter converts an expected attempt latency into the hedge trigger
// delay for one provider, or 0 when no hedge should arm: hedging disabled,
// expectation unknown, the provider's EWMA not yet fed by HedgeMinSamples
// successes (cold start), or load past the Ghosh crossover (suppression —
// counted in cyrus_hedge_suppressed_total). With HedgeFixed set the
// constant delay is returned verbatim; with HedgeStatic set, or on an
// engine without an observer, the open-loop HedgeMultiple x expected
// deadline is returned instead. Callers treat 0 as "sequential failover
// only". ctx is only used to stamp flight-recorder events.
func (e *Engine) HedgeAfter(ctx context.Context, cspName string, expected time.Duration) time.Duration {
	if e.tun.DisableHedge {
		return 0
	}
	if e.tun.HedgeFixed > 0 {
		return e.tun.HedgeFixed
	}
	if expected <= 0 {
		return 0
	}
	if e.tun.HedgeStatic || e.obs == nil {
		return clampHedge(time.Duration(e.tun.HedgeMultiple * float64(expected)))
	}
	if e.cold(cspName) {
		e.obs.HedgeSuppressed(ctx, cspName, "cold")
		return 0
	}
	inFlight, queue := e.sem.load(cspName)
	if e.overloaded(queue) {
		e.obs.HedgeSuppressed(ctx, cspName, "load")
		return 0
	}
	// Predicted completion under current load: the expectation stacked
	// behind the attempts already in flight at this provider.
	predicted := float64(expected) * float64(1+inFlight)
	return clampHedge(time.Duration(e.HedgeMultipleFor(cspName) * predicted))
}

// cold reports whether too few successful contacts have fed the
// provider's latency EWMA to arm a hedge against it.
func (e *Engine) cold(cspName string) bool {
	return e.tun.HedgeMinSamples > 0 && e.providers.Samples(cspName) < int64(e.tun.HedgeMinSamples)
}

// clampHedge floors the trigger delay: below hedgeFloor, scheduling noise
// (not provider slowness) dominates and hedging would just double load.
func clampHedge(d time.Duration) time.Duration {
	if d < hedgeFloor {
		return hedgeFloor
	}
	return d
}

// overloaded is the Ghosh crossover test against the engine's own load
// vector: true once its admission queue reaches HedgeLoadThreshold of the
// in-flight capacity. The signal is deliberately global, not per-CSP — a
// redundant request costs a global slot and lands on a *different*
// provider than the slow primary, so a saturated primary is an argument
// for hedging away from it, while a saturated engine means the hedge
// would only join the queue it is trying to beat.
func (e *Engine) overloaded(queue int) bool {
	thr := e.tun.HedgeLoadThreshold
	if thr < 0 {
		return false
	}
	return float64(queue) >= thr*float64(e.tun.MaxInFlight)
}

// LoadPermits reports whether launching a purely redundant attempt is
// currently sound — the gate race-read extras consult. Like hedging, it
// is open loop (always true) without an observer and under the static
// hedge policies.
func (e *Engine) LoadPermits() bool {
	if e.obs == nil || e.tun.HedgeStatic || e.tun.HedgeFixed > 0 {
		return true
	}
	return !e.overloaded(e.QueueDepth())
}

// QueueDepth returns how many attempts are waiting for an in-flight slot
// on this engine.
func (e *Engine) QueueDepth() int {
	_, queue := e.sem.load("")
	return queue
}

// HedgeState reports why the engine would currently withhold a hedge
// against the provider: "off" (hedging disabled), "cold" (not yet armed by
// enough latency samples), "load" (past the utilization crossover), or ""
// when a hedge would arm. `cyrusctl top` renders this as the per-provider
// suppression indicator.
func (e *Engine) HedgeState(cspName string) string {
	switch {
	case e.tun.DisableHedge:
		return "off"
	case e.tun.HedgeStatic || e.tun.HedgeFixed > 0 || e.obs == nil:
		return ""
	case e.cold(cspName):
		return "cold"
	case !e.LoadPermits():
		return "load"
	}
	return ""
}
