package reliability

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestFailureProbabilityKnownValues(t *testing.T) {
	// n=1, t=1: fails iff the single CSP is down.
	got, err := FailureProbability(1, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("F(1,1,0.1) = %g, want 0.1", got)
	}

	// n=3, t=2, p=0.1: fails when 0 or 1 CSPs are alive.
	// P(alive=0)=p^3=0.001; P(alive=1)=3*0.9*0.01=0.027 -> 0.028.
	got, err = FailureProbability(3, 2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.028) > 1e-12 {
		t.Fatalf("F(3,2,0.1) = %g, want 0.028", got)
	}

	// p=0: never fails. p=1: always fails.
	if got, _ = FailureProbability(4, 2, 0); got != 0 {
		t.Fatalf("F(4,2,0) = %g, want 0", got)
	}
	if got, _ = FailureProbability(4, 2, 1); got != 1 {
		t.Fatalf("F(4,2,1) = %g, want 1", got)
	}
}

func TestFailureProbabilityMatchesBruteForce(t *testing.T) {
	// Enumerate all alive/dead CSP subsets for small n.
	brute := func(n, tt int, p float64) float64 {
		total := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			alive := 0
			prob := 1.0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					alive++
					prob *= 1 - p
				} else {
					prob *= p
				}
			}
			if alive < tt {
				total += prob
			}
		}
		return total
	}
	for n := 1; n <= 8; n++ {
		for tt := 1; tt <= n; tt++ {
			for _, p := range []float64{0.01, 0.1, 0.4, 0.9} {
				got, err := FailureProbability(n, tt, p)
				if err != nil {
					t.Fatal(err)
				}
				want := brute(n, tt, p)
				if math.Abs(got-want) > 1e-9 {
					t.Fatalf("F(%d,%d,%g) = %g, want %g", n, tt, p, got, want)
				}
			}
		}
	}
}

func TestFailureProbabilityMonotonicInN(t *testing.T) {
	// Adding shares never hurts: F(n+1, t, p) <= F(n, t, p).
	f := func(tRaw, nRaw uint8, pRaw float64) bool {
		tt := 1 + int(tRaw%5)
		n := tt + int(nRaw%10)
		p := math.Abs(pRaw)
		p -= math.Floor(p) // into [0, 1)
		a, err1 := FailureProbability(n, tt, p)
		b, err2 := FailureProbability(n+1, tt, p)
		return err1 == nil && err2 == nil && b <= a+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFailureProbabilityMonotonicInT(t *testing.T) {
	// Requiring more shares can only increase failure probability.
	for tt := 1; tt < 6; tt++ {
		a, _ := FailureProbability(8, tt, 0.2)
		b, _ := FailureProbability(8, tt+1, 0.2)
		if b < a {
			t.Fatalf("F(8,%d) = %g > F(8,%d) = %g", tt+1, b, tt, a)
		}
	}
}

func TestFailureProbabilityBadParams(t *testing.T) {
	cases := []struct {
		n, t int
		p    float64
	}{
		{0, 1, 0.1}, {3, 0, 0.1}, {2, 3, 0.1}, {3, 2, -0.1}, {3, 2, 1.5},
	}
	for _, c := range cases {
		if _, err := FailureProbability(c.n, c.t, c.p); !errors.Is(err, ErrBadParams) {
			t.Errorf("F(%d,%d,%g) err = %v, want ErrBadParams", c.n, c.t, c.p, err)
		}
	}
}

func TestMinShares(t *testing.T) {
	// p=0.1, t=2: n=2 fails with prob 0.19; n=3 -> 0.028; n=4 -> 0.0037;
	// n=5 -> 0.00046.
	n, err := MinShares(2, 0.1, 0.05, 10)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("MinShares(eps=0.05) = %d, want 3", n)
	}
	n, err = MinShares(2, 0.1, 0.001, 10)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("MinShares(eps=0.001) = %d, want 5", n)
	}
	// Perfectly reliable CSPs: n = t suffices.
	n, err = MinShares(3, 0, 0.01, 10)
	if err != nil || n != 3 {
		t.Fatalf("MinShares(p=0) = %d, %v; want 3, nil", n, err)
	}
}

func TestMinSharesUnreachable(t *testing.T) {
	if _, err := MinShares(2, 0.5, 1e-9, 3); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestMinSharesBadParams(t *testing.T) {
	if _, err := MinShares(0, 0.1, 0.01, 5); !errors.Is(err, ErrBadParams) {
		t.Fatal("t=0 accepted")
	}
	if _, err := MinShares(4, 0.1, 0.01, 3); !errors.Is(err, ErrBadParams) {
		t.Fatal("maxN < t accepted")
	}
	if _, err := MinShares(2, 0.1, 0, 5); !errors.Is(err, ErrBadParams) {
		t.Fatal("eps=0 accepted")
	}
	if _, err := MinShares(2, 0.1, 1, 5); !errors.Is(err, ErrBadParams) {
		t.Fatal("eps=1 accepted")
	}
}

func TestMinSharesIsMinimal(t *testing.T) {
	f := func(tRaw uint8, pRaw, epsRaw float64) bool {
		tt := 1 + int(tRaw%4)
		p := 0.01 + math.Mod(math.Abs(pRaw), 0.4)
		eps := 0.001 + math.Mod(math.Abs(epsRaw), 0.2)
		n, err := MinShares(tt, p, eps, 30)
		if errors.Is(err, ErrUnreachable) {
			return true
		}
		if err != nil {
			return false
		}
		fn, _ := FailureProbability(n, tt, p)
		if fn > eps {
			return false
		}
		if n > tt {
			fprev, _ := FailureProbability(n-1, tt, p)
			if fprev <= eps {
				return false // n-1 would have sufficed
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestChooseAndOverhead(t *testing.T) {
	plan, err := Choose(2, 0.1, 0.05, 10)
	if err != nil {
		t.Fatal(err)
	}
	if plan.T != 2 || plan.N != 3 {
		t.Fatalf("plan = %+v, want {2 3}", plan)
	}
	if got := plan.StorageOverhead(); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("overhead = %g, want 1.5", got)
	}
}

func TestFailureProbFromDowntime(t *testing.T) {
	if got := FailureProbFromDowntime(0); got != 0 {
		t.Errorf("downtime 0 -> %g", got)
	}
	if got := FailureProbFromDowntime(HoursPerYear * 2); got != 1 {
		t.Errorf("downtime 2y -> %g", got)
	}
	got := FailureProbFromDowntime(18.53) // the paper's worst CSP
	want := 18.53 / 8760
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("downtime 18.53h -> %g, want %g", got, want)
	}
}
