package transfer

import (
	"context"
	"errors"
	"sync"
	"time"
)

// Race runs a k-out-of-n gather: every attempt in atts gets its own lane
// (Do semantics — slot bounding, retries, the operation's shared failed
// set), plus up to extra purely redundant lanes recruited from next() the
// moment the race starts, load permitting. Each lane walks candidates
// until one succeeds or the supply runs dry; the race resolves as soon as
// `need` lanes have succeeded, cancelling the rest. Candidates normally
// carry distinct payloads (erasure shares), so successes accumulate —
// need is the decode quorum, not a retry count.
//
// Redundant lanes are the race-read analogue of a hedge fired at t=0:
// they buy tail latency with extra load, so they are withheld entirely
// when the engine is past the Ghosh crossover (see HedgeAfter). Lanes
// launched are counted in cyrus_race_launched_total; payload bytes
// completed by losers after the race resolved — transfers cancellation
// could not reach — are pure redundancy waste, accounted in
// cyrus_race_cancelled_bytes_total.
//
// Like Hedged, lanes run detached: Race returns the moment the quorum
// lands, while losers may still be draining. A loser's Run can therefore
// execute after Race returns — callers must guard attempt side effects
// with their own mutex and snapshot shared state before consuming it.
//
// Returns nil once need successes landed; otherwise the last meaningful
// candidate error (or the context error) after every lane dried up.
func (o *Op) Race(ctx context.Context, atts []Attempt, need, extra int, next func() (Attempt, bool)) error {
	e := o.e
	if need <= 0 {
		return nil
	}
	rctx, rcancel := context.WithCancel(ctx)
	defer rcancel()

	var mu sync.Mutex
	var lastErr error
	successes := 0
	finished := false
	latch := e.rt.NewGroup()
	latch.Add(1)

	// Redundant lanes only launch while global utilization leaves room for
	// them.
	if extra > 0 && !e.LoadPermits() {
		extra = 0
	}
	lanes := len(atts) + extra

	// pull serializes the caller's candidate cursor across lanes.
	pull := func() (Attempt, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next == nil {
			return Attempt{}, false
		}
		return next()
	}

	lane := func(first *Attempt, redundant bool) {
		defer func() {
			mu.Lock()
			lanes--
			if lanes == 0 && !finished {
				finished = true
				latch.Done()
			}
			mu.Unlock()
		}()
		att := first
		for {
			mu.Lock()
			done := finished
			mu.Unlock()
			if done || rctx.Err() != nil {
				return
			}
			if att == nil {
				b, ok := pull()
				if !ok {
					return
				}
				att = &b
			}
			// Wrap Done to capture the payload size of a successful Run,
			// so a win landing after the race resolved can be accounted
			// as cancelled-byte waste.
			run := *att
			var gotBytes int64
			prevDone := run.Done
			run.Done = func(err error, bytes int64, elapsed time.Duration) {
				if err == nil {
					mu.Lock()
					gotBytes = bytes
					mu.Unlock()
				}
				if prevDone != nil {
					prevDone(err, bytes, elapsed)
				}
			}
			if redundant {
				e.obs.RaceLaunched(rctx, run.CSP)
			}
			err := o.Do(rctx, run)
			if err == nil {
				mu.Lock()
				late := finished
				resolved := false
				if !finished {
					successes++
					if successes >= need {
						finished = true
						resolved = true
						latch.Done()
					}
				}
				waste := gotBytes
				mu.Unlock()
				if late {
					e.obs.RaceCancelledBytes(rctx, run.CSP, waste)
				} else if resolved {
					rcancel()
				}
				return
			}
			mu.Lock()
			if (!errors.Is(err, context.Canceled) && !errors.Is(err, ErrSkipped)) || lastErr == nil {
				lastErr = err
			}
			mu.Unlock()
			att = nil
		}
	}

	for i := range atts {
		att := atts[i]
		e.rt.Go(func() { lane(&att, false) })
	}
	for i := 0; i < extra; i++ {
		e.rt.Go(func() { lane(nil, true) })
	}
	latch.Wait()

	mu.Lock()
	defer mu.Unlock()
	if successes >= need {
		return nil
	}
	if lastErr == nil {
		lastErr = ctx.Err()
	}
	if lastErr == nil {
		lastErr = errors.New("transfer: race exhausted candidates")
	}
	return lastErr
}
