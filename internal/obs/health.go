package obs

import "repro/internal/reliability"

// CSPHealth is one provider's health summary: the client's provider
// record as the health view shows it. It is the JSON shape served by
// /healthz and printed by `cyrusctl stats`.
type CSPHealth = reliability.Health

// AttachProviders points the health view (Health, /healthz) at a client's
// provider model. core.New attaches its client's model; when several
// clients share one Observer, the last one attached is served. Nil-safe.
func (o *Observer) AttachProviders(p *reliability.Estimator) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.providers = p
	o.mu.Unlock()
}

// Health returns the attached client's per-provider rows, sorted by name
// (nil for a nil Observer or before a client is attached).
func (o *Observer) Health() []CSPHealth {
	if o == nil {
		return nil
	}
	o.mu.RLock()
	p := o.providers
	o.mu.RUnlock()
	if p == nil {
		return nil
	}
	return p.Snapshot()
}
