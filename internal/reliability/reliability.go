// Package reliability implements CYRUS's privacy/reliability parameter
// planning (paper §4.2) and the client's per-provider record
// (provider.go), which carries the CSP failure estimate (paper §5.5) next
// to the link, latency and hedging statistics.
//
// The user picks the privacy level t (shares — hence CSPs — required to
// reconstruct a chunk) and a reliability bound ε on the probability that a
// chunk cannot be downloaded. Given a per-CSP failure probability p, the
// planner finds the minimum n such that
//
//	Σ_{s=0}^{t-1} C(n, s) (1-p)^s p^(n-s)  ≤  ε        (Eq. 1)
//
// i.e. the probability that fewer than t of the n share-holding CSPs are
// alive is at most ε. Minimizing n limits the data stored on the cloud,
// since total stored bytes scale with n/t.
package reliability

import (
	"errors"
	"fmt"
	"math"
)

// Errors returned by the planner.
var (
	ErrBadParams   = errors.New("reliability: invalid parameters")
	ErrUnreachable = errors.New("reliability: bound not reachable with available CSPs")
)

// HoursPerYear converts annual downtime to an availability fraction.
const HoursPerYear = 24 * 365

// FailureProbFromDowntime converts annual downtime hours (as reported by
// monitoring services such as CloudHarmony, which the paper cites) into the
// probability p that a CSP is unavailable at a random instant.
func FailureProbFromDowntime(hoursPerYear float64) float64 {
	if hoursPerYear <= 0 {
		return 0
	}
	if hoursPerYear >= HoursPerYear {
		return 1
	}
	return hoursPerYear / HoursPerYear
}

// FailureProbability returns the probability that a (t, n) placement cannot
// be read: the probability that fewer than t of the n CSPs holding shares
// are alive, with each CSP independently failed with probability p.
//
// This is Eq. (1)'s left-hand side: Σ_{s=0}^{t-1} C(n,s) (1-p)^s p^(n-s),
// where s counts alive CSPs.
func FailureProbability(n, t int, p float64) (float64, error) {
	if n <= 0 || t <= 0 || t > n {
		return 0, fmt.Errorf("%w: n=%d t=%d", ErrBadParams, n, t)
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("%w: p=%g", ErrBadParams, p)
	}
	var sum float64
	for s := 0; s < t; s++ {
		sum += binomialPMF(n, s, 1-p)
	}
	if sum > 1 {
		sum = 1
	}
	return sum, nil
}

// binomialPMF returns C(n, k) q^k (1-q)^(n-k) computed in log space to stay
// stable for large n.
func binomialPMF(n, k int, q float64) float64 {
	if q == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if q == 1 {
		if k == n {
			return 1
		}
		return 0
	}
	lg := lnChoose(n, k) + float64(k)*math.Log(q) + float64(n-k)*math.Log(1-q)
	return math.Exp(lg)
}

func lnChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

// MinShares finds the minimum n in [t, maxN] satisfying Eq. (1) for the
// given privacy level t, per-CSP failure probability p, and reliability
// bound eps. maxN is the number of available CSPs (or platform clusters
// when clustering is enabled). It returns ErrUnreachable when even n = maxN
// misses the bound.
func MinShares(t int, p, eps float64, maxN int) (int, error) {
	if t <= 0 || maxN < t {
		return 0, fmt.Errorf("%w: t=%d maxN=%d", ErrBadParams, t, maxN)
	}
	if eps <= 0 || eps >= 1 {
		return 0, fmt.Errorf("%w: eps=%g", ErrBadParams, eps)
	}
	for n := t; n <= maxN; n++ {
		f, err := FailureProbability(n, t, p)
		if err != nil {
			return 0, err
		}
		if f <= eps {
			return n, nil
		}
	}
	return 0, fmt.Errorf("%w: t=%d p=%g eps=%g maxN=%d", ErrUnreachable, t, p, eps, maxN)
}

// Plan bundles the chosen secret-sharing parameters.
type Plan struct {
	T int // shares needed to reconstruct (privacy level)
	N int // shares stored (reliability level)
}

// StorageOverhead returns the storage blow-up factor n/t of the plan.
func (p Plan) StorageOverhead() float64 { return float64(p.N) / float64(p.T) }

// Choose runs the paper's two-step parameter selection: the user fixes t,
// then n is the minimal value meeting the ε bound. p should be the largest
// failure probability among candidate CSPs (conservative, per the paper's
// footnote 6).
func Choose(t int, p, eps float64, available int) (Plan, error) {
	n, err := MinShares(t, p, eps, available)
	if err != nil {
		return Plan{}, err
	}
	return Plan{T: t, N: n}, nil
}
