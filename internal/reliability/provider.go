package reliability

import (
	"sort"
	"sync"
	"time"
)

// ---------------------------------------------------------------------------
// The per-provider record (paper §4.2 footnote, §5.5, footnote 7)
//
// Each client keeps its own statistics for every CSP: link bandwidth for
// the download selector ("each client maintains local bandwidth statistics
// to all CSPs") and contact history for the failure estimate ("if a CSP
// cannot be contacted for that length of time, then we count a CSP
// failure"). The Estimator holds both, plus the request-latency EWMA and
// the adaptive hedge multiple the transfer engine tunes, in one record per
// provider under one lock. The client folds every finished attempt in
// once (Record); the selector, the hedger, the failure planner and the
// health view all read the same record.

const (
	// ewmaWeight is the weight of a new observation in the latency and
	// bandwidth EWMAs.
	ewmaWeight = 0.3
	// defaultLinkBps is the downlink estimate for a provider with no
	// configured seed and no observed download: 1 MB/s, a deliberately
	// modest guess.
	defaultLinkBps = 1 << 20

	// hedgeWinDecay shrinks a provider's hedge multiple after a backup win:
	// hedges against it are paying off, fire a little earlier.
	hedgeWinDecay = 0.85
	// hedgeLossGrowth stretches the multiple after a wasted hedge (backup
	// launched, primary won anyway): back off before redundancy feeds load.
	hedgeLossGrowth = 1.25
	// hedgeMultMinFrac / hedgeMultMaxFrac bound the multiple to
	// [base x min, base x max] so a burst of one outcome cannot pin it at
	// an extreme.
	hedgeMultMinFrac = 0.5
	hedgeMultMaxFrac = 4.0
)

// Link names the direction a contact's payload crossed. The zero value is
// a contact that moved no payload worth timing (list, delete, probe).
type Link uint8

// Links whose payload feeds a bandwidth estimate.
const (
	Downlink Link = iota + 1
	Uplink
)

// Contact is one finished provider attempt as the client saw it.
type Contact struct {
	At      time.Time     // when the attempt finished, on the client's clock
	Elapsed time.Duration // how long it took; 0 = not measurable (instant stores)
	Bytes   int64         // payload moved
	Link    Link          // which bandwidth estimate Bytes/Elapsed feeds
	Err     error         // nil on success
	// Outage marks a failure that says the provider was unreachable. Only
	// those count toward outage detection and the failure probability;
	// other errors (a missing object, a full provider) are answers.
	Outage bool
}

// Health is one provider's record as the health view shows it. It is the
// JSON shape served by /healthz and printed by `cyrusctl stats`.
type Health struct {
	CSP                string    `json:"csp"`
	Successes          int64     `json:"successes"`
	Failures           int64     `json:"failures"`
	LatencyEWMASeconds float64   `json:"latency_ewma_seconds"`
	DownlinkBps        float64   `json:"downlink_bps,omitempty"`
	UplinkBps          float64   `json:"uplink_bps,omitempty"`
	Down               bool      `json:"down"`
	LastError          string    `json:"last_error,omitempty"`
	LastContact        time.Time `json:"last_contact"`
}

// Estimator is a client's model of its providers: one record per CSP. It
// is safe for concurrent use.
type Estimator struct {
	mu        sync.Mutex
	threshold time.Duration
	csps      map[string]*record
}

// record is one provider's state. Health carries the contact counts, last
// error and contact, latency EWMA, uplink EWMA and down flag; DownlinkBps
// is filled from downBps when a snapshot is taken.
type record struct {
	Health

	downBps  float64 // downlink EWMA, seeded from configuration
	downSeen bool    // downBps holds an observation, not the seed

	// Outage tracking: consecutive unreachable contacts, completed
	// episodes, and the attempt tallies behind FailureProb.
	failing      bool
	firstFailure time.Time
	episodes     int
	attempts     int
	failedTries  int

	hedgeMult float64 // adaptive hedge multiple; 0 = the engine's base
}

// NewEstimator returns an empty model. A provider is counted as failed
// once it has been unreachable for threshold (the paper suggests one day,
// the default when threshold <= 0). linkBps seeds the downlink estimates
// (bytes/second) the selector uses before any download is observed;
// providers without a positive seed start at defaultLinkBps.
func NewEstimator(threshold time.Duration, linkBps map[string]float64) *Estimator {
	if threshold <= 0 {
		threshold = 24 * time.Hour
	}
	e := &Estimator{threshold: threshold, csps: make(map[string]*record)}
	for name, bps := range linkBps {
		if bps > 0 {
			e.csps[name] = &record{Health: Health{CSP: name}, downBps: bps}
		}
	}
	return e
}

// state returns the provider's record, creating it. Caller holds e.mu.
func (e *Estimator) state(csp string) *record {
	r, ok := e.csps[csp]
	if !ok {
		r = &record{Health: Health{CSP: csp}, downBps: defaultLinkBps}
		e.csps[csp] = r
	}
	return r
}

// Record folds one finished attempt into the provider's record and
// returns the record as it stands afterwards, plus whether this call
// flipped its down state (a recovery, or an outage reaching the
// threshold). Returning the transition from under the lock lets callers
// drive per-transition hooks (gauges, logs) without a racy
// read-then-record sequence.
func (e *Estimator) Record(csp string, c Contact) (h Health, changed bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := e.state(csp)
	r.LastContact = c.At
	if c.Err == nil {
		r.Successes++
		r.LastError = ""
		if c.Elapsed > 0 {
			r.LatencyEWMASeconds = ewma(r.LatencyEWMASeconds, c.Elapsed.Seconds())
			if c.Bytes > 0 {
				rate := float64(c.Bytes) / c.Elapsed.Seconds()
				switch c.Link {
				case Downlink:
					if !r.downSeen {
						r.downBps, r.downSeen = rate, true
					} else {
						r.downBps = ewma(r.downBps, rate)
					}
				case Uplink:
					r.UplinkBps = ewma(r.UplinkBps, rate)
				}
			}
		}
		r.attempts++
		r.failing = false
		r.firstFailure = time.Time{}
		changed = r.Down
		r.Down = false
		return r.snapshot(), changed
	}
	r.Failures++
	r.LastError = c.Err.Error()
	if c.Outage {
		r.attempts++
		r.failedTries++
		if !r.failing {
			r.failing = true
			r.firstFailure = c.At
		} else if !r.Down && c.At.Sub(r.firstFailure) >= e.threshold {
			r.Down = true
			r.episodes++
			changed = true
		}
	}
	return r.snapshot(), changed
}

// ewma folds x into cur; a zero cur means no observation yet.
func ewma(cur, x float64) float64 {
	if cur == 0 {
		return x
	}
	return (1-ewmaWeight)*cur + ewmaWeight*x
}

// snapshot copies the record's health row. The downlink estimate shows
// once the provider has answered at least once.
func (r *record) snapshot() Health {
	h := r.Health
	if h.Successes > 0 {
		h.DownlinkBps = r.downBps
	}
	return h
}

// Down reports whether the CSP is currently counted as failed.
func (e *Estimator) Down(csp string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.csps[csp]
	return ok && r.Down
}

// Failures returns the number of completed outage episodes for the CSP.
func (e *Estimator) Failures(csp string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if r, ok := e.csps[csp]; ok {
		return r.episodes
	}
	return 0
}

// FailureProb estimates the failure probability of the CSP as the fraction
// of its contacts that found it unreachable; returns fallback when there
// is no history.
func (e *Estimator) FailureProb(csp string, fallback float64) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.csps[csp]
	if !ok || r.attempts == 0 {
		return fallback
	}
	return float64(r.failedTries) / float64(r.attempts)
}

// MaxFailureProb returns the largest estimated failure probability across
// the given CSPs — the conservative p the planner should use (footnote 6).
func (e *Estimator) MaxFailureProb(csps []string, fallback float64) float64 {
	p := 0.0
	for _, c := range csps {
		if q := e.FailureProb(c, fallback); q > p {
			p = q
		}
	}
	if p == 0 {
		return fallback
	}
	return p
}

// Latency returns the provider's request-latency EWMA, or 0 when no
// latency has been observed.
func (e *Estimator) Latency(csp string) time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	if r, ok := e.csps[csp]; ok {
		return time.Duration(r.LatencyEWMASeconds * float64(time.Second))
	}
	return 0
}

// Samples returns how many successful contacts have fed the provider's
// latency EWMA — the hedger's cold-start arming signal.
func (e *Estimator) Samples(csp string) int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if r, ok := e.csps[csp]; ok {
		return r.Successes
	}
	return 0
}

// Downlink returns the provider's downlink estimate in bytes/second: the
// observed EWMA, else the configured seed, else defaultLinkBps.
func (e *Estimator) Downlink(csp string) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if r, ok := e.csps[csp]; ok {
		return r.downBps
	}
	return defaultLinkBps
}

// HedgeMultiple returns the provider's adaptive hedge multiple, starting
// from base.
func (e *Estimator) HedgeMultiple(csp string, base float64) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if r, ok := e.csps[csp]; ok && r.hedgeMult != 0 {
		return r.hedgeMult
	}
	return base
}

// HedgeOutcome folds one resolved hedge against the provider into its
// multiple: a backup win shrinks it, a wasted hedge stretches it, within
// [base/2, base x 4]. Fixed multiplicative steps on outcomes only, so the
// multiple is a deterministic fold over the outcome sequence.
func (e *Estimator) HedgeOutcome(csp string, win bool, base float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := e.state(csp)
	m := r.hedgeMult
	if m == 0 {
		m = base
	}
	if win {
		m *= hedgeWinDecay
		if lo := base * hedgeMultMinFrac; m < lo {
			m = lo
		}
	} else {
		m *= hedgeLossGrowth
		if hi := base * hedgeMultMaxFrac; m > hi {
			m = hi
		}
	}
	r.hedgeMult = m
}

// Snapshot returns the health row of every provider the client has
// contacted, sorted by name.
func (e *Estimator) Snapshot() []Health {
	e.mu.Lock()
	out := make([]Health, 0, len(e.csps))
	for _, r := range e.csps {
		if r.Successes+r.Failures > 0 {
			out = append(out, r.snapshot())
		}
	}
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].CSP < out[j].CSP })
	return out
}

// Tracked returns the CSPs with recorded contacts, sorted.
func (e *Estimator) Tracked() []string {
	rows := e.Snapshot()
	out := make([]string, len(rows))
	for i, h := range rows {
		out[i] = h.CSP
	}
	return out
}
