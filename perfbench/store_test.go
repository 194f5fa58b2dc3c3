package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/csp"
)

// TestMemStoreListSorted checks List against a sorted filter of the live
// names after interleaved uploads, overwrites and deletes.
func TestMemStoreListSorted(t *testing.T) {
	ctx := context.Background()
	s := newMemStore("mem", nil)
	if err := s.Authenticate(ctx, csp.Credentials{Token: "x"}); err != nil {
		t.Fatal(err)
	}
	r := newRand(1)
	live := map[string]int{}
	for i := 0; i < 2000; i++ {
		name := fmt.Sprintf("%c-%03d", "ab"[r.IntN(2)], r.IntN(300))
		if _, ok := live[name]; ok && r.IntN(3) == 0 {
			if err := s.Delete(ctx, name); err != nil {
				t.Fatal(err)
			}
			delete(live, name)
			continue
		}
		n := r.IntN(10)
		if err := s.Upload(ctx, name, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		live[name] = n
	}
	var want []string
	var held int64
	for name, n := range live {
		held += int64(n)
		if strings.HasPrefix(name, "b-") {
			want = append(want, name)
		}
	}
	sort.Strings(want)
	got, err := s.List(ctx, "b-")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("listed %d objects, want %d", len(got), len(want))
	}
	for i, o := range got {
		if o.Name != want[i] || o.Size != int64(live[o.Name]) {
			t.Fatalf("object %d = %s (%d bytes), want %s (%d)", i, o.Name, o.Size, want[i], live[want[i]])
		}
	}
	if s.heldBytes() != held {
		t.Fatalf("held %d bytes, want %d", s.heldBytes(), held)
	}
}

// TestLinkSerialisesPayloads checks the link model: concurrent payloads
// in one direction queue FIFO behind each other, the other direction is
// independent, and a cancelled call returns at once.
func TestLinkSerialisesPayloads(t *testing.T) {
	l := &link{rtt: 5 * time.Millisecond, bps: 1e6}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.transfer(context.Background(), up, 20000); err != nil { // 20 ms each
				t.Error(err)
			}
		}()
	}
	if err := l.transfer(context.Background(), down, 20000); err != nil {
		t.Error(err)
	}
	if d := time.Since(start); d > 55*time.Millisecond {
		t.Errorf("the down payload waited behind the up pipe: %v", d)
	}
	wg.Wait()
	if d := time.Since(start); d < 65*time.Millisecond {
		t.Errorf("three 20 ms payloads on one pipe finished in %v", d)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start = time.Now()
	if err := l.transfer(ctx, up, 1e6); err == nil || time.Since(start) > 50*time.Millisecond {
		t.Errorf("cancelled transfer: err %v after %v", err, time.Since(start))
	}
}
