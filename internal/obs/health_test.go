package obs

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/reliability"
)

// healthz fetches and decodes the /healthz body.
func healthz(t *testing.T, o *Observer) healthzBody {
	t.Helper()
	rec := httptest.NewRecorder()
	o.HealthzHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var body healthzBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("healthz body %q: %v", rec.Body.String(), err)
	}
	return body
}

// TestScoreboard: the observer's health view serves the attached client's
// provider record — counts, latency EWMA, bandwidth, down state and last
// error — sorted by provider, and /healthz degrades while one is down.
func TestScoreboard(t *testing.T) {
	o := NewObserver()
	if body := healthz(t, o); body.Status != "ok" || body.CSPs == nil || len(body.CSPs) != 0 {
		t.Fatalf("healthz before attach = %+v, want ok with an empty list", body)
	}
	p := reliability.NewEstimator(time.Hour, nil)
	o.AttachProviders(p)
	t0 := time.Date(2015, 4, 21, 0, 0, 0, 0, time.UTC)
	unavailable := errors.New("unavailable")

	p.Record("alpha", reliability.Contact{At: t0, Elapsed: 100 * time.Millisecond, Bytes: 1 << 20, Link: reliability.Downlink})
	p.Record("alpha", reliability.Contact{At: t0.Add(time.Second), Elapsed: 200 * time.Millisecond, Bytes: 1 << 19, Link: reliability.Uplink})
	p.Record("beta", reliability.Contact{At: t0, Err: unavailable, Outage: true})
	p.Record("beta", reliability.Contact{At: t0.Add(2 * time.Hour), Err: unavailable, Outage: true})

	rows := o.Health()
	if len(rows) != 2 || rows[0].CSP != "alpha" || rows[1].CSP != "beta" {
		t.Fatalf("health = %+v, want sorted [alpha beta]", rows)
	}
	a := rows[0]
	if a.Successes != 2 || a.Failures != 0 {
		t.Errorf("alpha counts = %d/%d, want 2/0", a.Successes, a.Failures)
	}
	if d := a.LatencyEWMASeconds - 0.13; d > 1e-9 || d < -1e-9 {
		t.Errorf("alpha latency EWMA = %v, want 0.13", a.LatencyEWMASeconds)
	}
	if a.DownlinkBps != 1<<20*10 || a.UplinkBps != 1<<19*5 {
		t.Errorf("alpha bandwidth = %v/%v, want %v/%v", a.DownlinkBps, a.UplinkBps, float64(1<<20*10), float64(1<<19*5))
	}
	b := rows[1]
	if !b.Down || b.Failures != 2 || b.LastError != "unavailable" {
		t.Errorf("beta = %+v, want down with 2 failures and last error", b)
	}
	if body := healthz(t, o); body.Status != "degraded" || len(body.CSPs) != 2 {
		t.Errorf("healthz with beta down = %+v, want degraded", body)
	}

	// Success clears the error and the down flag.
	p.Record("beta", reliability.Contact{At: t0.Add(3 * time.Hour)})
	rows = o.Health()
	if rows[1].LastError != "" || rows[1].Down {
		t.Errorf("beta after recovery = %+v, want clean", rows[1])
	}
	if body := healthz(t, o); body.Status != "ok" {
		t.Errorf("healthz after recovery = %q, want ok", body.Status)
	}

	// A second client attaching takes over the view.
	o.AttachProviders(reliability.NewEstimator(time.Hour, nil))
	if rows := o.Health(); len(rows) != 0 {
		t.Errorf("health after re-attach = %+v, want the new client's empty record", rows)
	}
}

func TestScoreboardZeroLatencyCounted(t *testing.T) {
	o := NewObserver()
	p := reliability.NewEstimator(time.Hour, nil)
	o.AttachProviders(p)
	p.Record("a", reliability.Contact{At: time.Now()})
	rows := o.Health()
	if rows[0].Successes != 1 || rows[0].LatencyEWMASeconds != 0 {
		t.Errorf("zero-latency success mishandled: %+v", rows[0])
	}
}
