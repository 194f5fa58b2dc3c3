package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// opSequence runs one round of w and returns its operations as
// "kind target bytes" lines: in call order for a one-caller workload,
// sorted otherwise (two callers interleave by timing). Get sizes depend
// on which version a concurrent reader saw, so only put sizes are kept
// where there are two callers.
func opSequence(t *testing.T, w workload, key uint64) []string {
	t.Helper()
	res, err := runRound(context.Background(), w, key, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.errs) > 0 {
		t.Fatalf("%s: %v", w.name, res.errs[0])
	}
	var out []string
	for _, o := range res.ops {
		bytes := o.bytes
		if w.name != "bulk" && o.kind != "put" {
			bytes = 0
		}
		out = append(out, fmt.Sprintf("%s %s %d", o.kind, o.target, bytes))
	}
	if w.name != "bulk" {
		sort.Strings(out)
	}
	return out
}

// TestSameSeedSameOps checks that a seed fixes each workload's operation
// sequence.
func TestSameSeedSameOps(t *testing.T) {
	for _, w := range workloads {
		if testing.Short() && w.name != "bulk" {
			continue
		}
		a, b := opSequence(t, w, 7), opSequence(t, w, 7)
		if strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Errorf("%s: two rounds with the same key ran different operations", w.name)
		}
		if c := opSequence(t, w, 8); strings.Join(a, "\n") == strings.Join(c, "\n") {
			t.Errorf("%s: two keys ran the same operations", w.name)
		}
	}
}

// TestBulkCountsRepeat checks that on bulk (one caller, instant
// providers) the provider-call counts and the storage ratio repeat
// exactly, so later changes can cite them as counts. The traced round has
// an observer, which arms download hedges; a hedge fires only when a
// download outlasts its deadline (a timer, reached under the race
// detector), so hedged attempts are taken out of the download count.
func TestBulkCountsRepeat(t *testing.T) {
	bulk, _ := workloadByName("bulk")
	counts := func() map[string]float64 {
		rec := newRecorder()
		res, err := runRound(context.Background(), bulk, 7, 0, rec)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.errs) > 0 {
			t.Fatal(res.errs[0])
		}
		gets := 0
		for _, o := range res.ops {
			if o.kind == "get" {
				gets++
			}
		}
		ms := map[string]float64{}
		for _, m := range layerMetrics([]result{res}, rec) {
			ms[m.name] = m.value
		}
		return map[string]float64{
			"stored_bytes_per_user_byte": float64(res.stored) / float64(res.userPut),
			"csp.calls.list_per_op":      ms["csp.calls.list_per_op"],
			"csp.calls.upload_per_put":   ms["csp.calls.upload_per_put"],
			"csp.calls.download_per_get": (math.Round(ms["csp.calls.download_per_get"]*float64(gets)) - ms["transfer.hedges"]) / float64(gets),
		}
	}
	a, b := counts(), counts()
	for name, v := range a {
		if b[name] != v {
			t.Errorf("%s: %v then %v", name, v, b[name])
		}
	}
}
