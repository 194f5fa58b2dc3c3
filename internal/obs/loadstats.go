package obs

import (
	"sort"
	"sync"
	"time"

	"repro/internal/reliability"
)

// Load telemetry: per-CSP sampled time-series windows of the load vector
// — queue depth, in-flight attempts, the request-latency EWMA, and a
// predicted completion time for a newly enqueued request. Following
// Ghosh's observation that redundancy tuning is only sound when the load
// vector is actually measured, the transfer engine samples on its own
// events (no background goroutine — it stays correct under netsim virtual
// time), and the observer publishes both live gauges and a bounded per-CSP
// window through the snapshot API. The window is telemetry only: the
// engine's hedge decisions read its own counters, never this window.

// LoadSample is one sampled point of a provider's load vector.
type LoadSample struct {
	At                 time.Time `json:"at"`
	InFlight           int       `json:"in_flight"`
	QueueDepth         int       `json:"queue_depth"`
	EWMALatencySeconds float64   `json:"ewma_latency_seconds"`
	// PredictedSeconds estimates how long a request enqueued now would
	// take: the latency EWMA stacked behind the requests already in
	// flight, EWMA × (1 + in-flight).
	PredictedSeconds float64 `json:"predicted_seconds"`
}

// CSPLoad is one provider's load view: the most recent sample plus the
// retained window, oldest first.
type CSPLoad struct {
	CSP     string       `json:"csp"`
	Current LoadSample   `json:"current"`
	Window  []LoadSample `json:"window,omitempty"`
}

// LoadConfig tunes the load tracker. Zero values take the defaults.
type LoadConfig struct {
	// Window is how many samples are retained per CSP. Default 64.
	Window int
	// SampleInterval is the minimum spacing between retained samples per
	// CSP (event-driven sampling can fire far faster than a window wants).
	// Default 100ms; negative retains every sample.
	SampleInterval time.Duration
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Window == 0 {
		c.Window = 64
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = 100 * time.Millisecond
	}
	return c
}

// cspLoadState is one provider's sample ring.
type cspLoadState struct {
	ring    []LoadSample
	pos     int
	full    bool
	lastAt  time.Time
	sampled bool
}

// loadTracker keeps the load windows. The transfer engine feeds it
// (SampleLoad) from its own counters; the tracker only retains and
// publishes samples.
type loadTracker struct {
	o   *Observer
	cfg LoadConfig

	ewmaGauge      *GaugeVec   // cyrus_load_ewma_latency_seconds{csp}
	predictedGauge *GaugeVec   // cyrus_load_predicted_completion_seconds{csp}
	samplesTotal   *CounterVec // cyrus_load_samples_total{csp}

	mu   sync.Mutex
	csps map[string]*cspLoadState
}

func newLoadTracker(o *Observer, cfg LoadConfig) *loadTracker {
	return &loadTracker{
		o:              o,
		cfg:            cfg.withDefaults(),
		ewmaGauge:      o.reg.Gauge(MetricLoadEWMA, "Scoreboard request-latency EWMA by csp, sampled on load events.", "csp"),
		predictedGauge: o.reg.Gauge(MetricLoadPredicted, "Predicted completion time for a request enqueued now, by csp.", "csp"),
		samplesTotal:   o.reg.Counter(MetricLoadSamples, "Load samples retained in the telemetry window, by csp.", "csp"),
		csps:           make(map[string]*cspLoadState),
	}
}

// sample retains one sample for cspName if the spacing gate allows. A
// sample that reports the provider idle while the newest retained one
// shows it loaded bypasses the gate: otherwise the window's newest sample
// could report the provider as loaded forever. The latency EWMA is read
// from p only for a retained sample.
func (t *loadTracker) sample(cspName string, inFlight, queue int, p *reliability.Estimator) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.csps[cspName]
	if !ok {
		st = &cspLoadState{ring: make([]LoadSample, t.cfg.Window)}
		t.csps[cspName] = st
	}
	now := t.o.now()
	idled := inFlight == 0 && st.sampled && st.ring[(st.pos+len(st.ring)-1)%len(st.ring)].InFlight != 0
	if !idled && st.sampled && t.cfg.SampleInterval > 0 && now.Sub(st.lastAt) < t.cfg.SampleInterval {
		return
	}
	ewma := p.Latency(cspName).Seconds()
	s := LoadSample{
		At:                 now,
		InFlight:           inFlight,
		QueueDepth:         queue,
		EWMALatencySeconds: ewma,
		PredictedSeconds:   ewma * float64(1+inFlight),
	}
	st.ring[st.pos] = s
	st.pos = (st.pos + 1) % len(st.ring)
	if st.pos == 0 {
		st.full = true
	}
	st.lastAt, st.sampled = now, true
	t.ewmaGauge.With(cspName).Set(s.EWMALatencySeconds)
	t.predictedGauge.With(cspName).Set(s.PredictedSeconds)
	t.samplesTotal.With(cspName).Inc()
}

// snapshot returns every provider's load view, sorted by name.
func (t *loadTracker) snapshot() []CSPLoad {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]CSPLoad, 0, len(t.csps))
	for name, st := range t.csps {
		// Oldest first; every ring holds at least the sample that made it.
		window := make([]LoadSample, 0, len(st.ring))
		if st.full {
			window = append(window, st.ring[st.pos:]...)
		}
		window = append(window, st.ring[:st.pos]...)
		out = append(out, CSPLoad{CSP: name, Current: window[len(window)-1], Window: window})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].CSP < out[j].CSP })
	return out
}

// LoadStats returns the per-CSP load telemetry windows, sorted by provider
// name. Nil-safe.
func (o *Observer) LoadStats() []CSPLoad {
	if o == nil {
		return nil
	}
	return o.load.snapshot()
}

// SampleLoad folds one point of a provider's load vector into its
// telemetry window and the cyrus_load_* gauges: the engine's in-flight
// count for the provider, its admission-queue depth, and the request-
// latency EWMA from the client's provider record p. The transfer engine
// calls it on every in-flight change and successful contact. Nil-safe.
func (o *Observer) SampleLoad(cspName string, inFlight, queue int, p *reliability.Estimator) {
	if o == nil || cspName == "" {
		return
	}
	o.load.sample(cspName, inFlight, queue, p)
}
