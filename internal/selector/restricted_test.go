package selector

import (
	"testing"
)

func restrictedInstance() Instance {
	return Instance{
		T: 2,
		Chunks: []Chunk{
			{ID: "c1", ShareSize: 100, StoredOn: []string{"a", "b", "x", "y"}},
			{ID: "c2", ShareSize: 100, StoredOn: []string{"a", "x", "y"}},
		},
		LinkBps: map[string]float64{"a": 1e6, "b": 1e6, "x": 1e9, "y": 1e9},
	}
}

// TestRestrictedPrefersAllowedSet checks the class subset wins even when
// out-of-class sources are faster.
func TestRestrictedPrefersAllowedSet(t *testing.T) {
	in := restrictedInstance()
	s := Restricted{Allowed: map[string]map[string]bool{
		"c1": {"a": true, "b": true},
	}}
	a, err := s.Select(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range a.Pick["c1"] {
		if c != "a" && c != "b" {
			t.Fatalf("c1 picked out-of-class source %s: %v", c, a.Pick["c1"])
		}
	}
	// c2 is unrestricted: the fast sources are fine.
	if len(a.Pick["c2"]) != 2 {
		t.Fatalf("c2 pick: %v", a.Pick["c2"])
	}
}

// TestRestrictedFallsBackBelowT checks a degraded class subset never makes
// a chunk infeasible: with < T allowed holders the full source list stays.
func TestRestrictedFallsBackBelowT(t *testing.T) {
	in := restrictedInstance()
	s := Restricted{Allowed: map[string]map[string]bool{
		"c1": {"a": true}, // only one in-class holder, T=2
	}}
	a, err := s.Select(in)
	if err != nil {
		t.Fatalf("restriction below T must not fail: %v", err)
	}
	if len(a.Pick["c1"]) != 2 {
		t.Fatalf("c1 pick: %v", a.Pick["c1"])
	}
}

// TestRestrictedComposesWithOptimized checks the wrapper delegates to an
// explicit inner selector: the plan is the inner's plan over the filtered
// instance, so it respects the class subset.
func TestRestrictedComposesWithOptimized(t *testing.T) {
	in := restrictedInstance()
	s := Restricted{
		Allowed: map[string]map[string]bool{"c1": {"a": true, "b": true}},
		Inner:   Optimized{},
	}
	a, err := s.Select(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range a.Pick["c1"] {
		if c != "a" && c != "b" {
			t.Fatalf("c1 picked out-of-class source %s: %v", c, a.Pick["c1"])
		}
	}
	filtered := restrictedInstance()
	filtered.Chunks[0].StoredOn = []string{"a", "b"}
	want, err := (Optimized{}).Select(filtered)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"c1", "c2"} {
		if len(a.Pick[id]) != len(want.Pick[id]) {
			t.Fatalf("%s pick = %v, want the inner selector's %v", id, a.Pick[id], want.Pick[id])
		}
		for i := range want.Pick[id] {
			if a.Pick[id][i] != want.Pick[id][i] {
				t.Fatalf("%s pick = %v, want the inner selector's %v", id, a.Pick[id], want.Pick[id])
			}
		}
	}
	if s.Name() != "restricted+cyrus" {
		t.Fatalf("Name() = %q", s.Name())
	}
}

// TestRestrictedNoAllowedMap is the identity case.
func TestRestrictedNoAllowedMap(t *testing.T) {
	in := restrictedInstance()
	want, err := (Optimized{}).Select(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := (Restricted{}).Select(in)
	if err != nil {
		t.Fatal(err)
	}
	for id := range want.Pick {
		if len(got.Pick[id]) != len(want.Pick[id]) {
			t.Fatalf("identity mismatch for %s: %v vs %v", id, got.Pick[id], want.Pick[id])
		}
	}
}
