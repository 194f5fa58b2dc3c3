package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/chunker"
	"repro/internal/core"
	"repro/internal/csp"
	"repro/internal/erasure"
	"repro/internal/metadata"
	"repro/internal/obs"
)

// workload is one seeded input set. setup builds the round's providers,
// clients and initial files (timed as setup_s) and returns the measured
// phase, a fixed sequence of client operations.
type workload struct {
	name  string
	setup func(ctx context.Context, rd *round) (phase func(context.Context) error, err error)
}

// opRec is one finished client operation.
type opRec struct {
	kind   string
	target string // file name; "" for a sync
	dur    time.Duration
	bytes  int64
	id     int64 // op span ID; 0 in an untraced round
}

// round is one independent repetition of a workload: fresh providers,
// fresh clients, the same kind of set-up and a fixed operation sequence
// drawn from the round's own key. Repeating rounds until the run's time
// is spent keeps per-op cost independent of run length, which matters
// because per-op cost grows with the versions stored.
type round struct {
	seed  uint64        // the run's seed
	index int           // round number; a traced run repeats each index
	key   uint64        // mix(seed, index)
	rec   *recorder     // nil when untraced
	obs   *obs.Observer // nil when untraced

	clients []*core.Client
	stores  []*memStore

	mu           sync.Mutex
	ops          []opRec
	attempted    int
	errs         []error
	userPut      int64           // bytes of every version put, set-up included
	partialSyncs int             // syncs that returned a partial view (see syncOp)
	useful       map[int64]int64 // get op ID -> share bytes its decodes needed
	replays      []func([]byte) []byte
}

// result is what a finished round reports. It copies out what the
// metrics need so the round's providers and clients can be freed.
type result struct {
	traced       bool
	setup        time.Duration
	phase        time.Duration
	ops          []opRec
	attempts     int
	errs         []error
	userPut      int64
	partialSyncs int
	stored       int64
	counters     map[string]float64 // obs counters (traced rounds)
	useful       map[int64]int64
}

// size returns the size of the slot-th of slots files of the round:
// consecutive points of one low-discrepancy sequence per run, so every
// run covers the range [lo, hi] evenly however many rounds it fits and
// two seeds differ only in which file gets which size.
func (rd *round) size(slot, slots, lo, hi int) int {
	return logSize(spread(mix(rd.seed, 1), rd.index*slots+slot), lo, hi)
}

// newStores builds providers named by names, each behind its link (nil
// for zero service time).
func (rd *round) newStores(names []string, links []*link) {
	for i, n := range names {
		var l *link
		if links != nil {
			l = links[i]
		}
		rd.stores = append(rd.stores, newMemStore(n, l))
	}
}

// newClient builds a client over every provider in the configuration
// `cyrusctl init` writes: T=2, N derived from Epsilon, default chunker, no
// metadata cache. In a traced round the client sees each provider through
// the timing wrapper and reports to the round's observer.
func (rd *round) newClient(ctx context.Context, id string) (*core.Client, error) {
	stores := make([]csp.Store, len(rd.stores))
	for i, s := range rd.stores {
		stores[i] = s
		if rd.rec != nil {
			stores[i] = wrapStore(s, rd.rec)
		}
		if err := stores[i].Authenticate(ctx, csp.Credentials{Token: "perfbench"}); err != nil {
			return nil, err
		}
	}
	c, err := core.New(core.Config{ClientID: id, Key: fmt.Sprintf("perfbench-%016x", rd.key), Obs: rd.obs}, stores)
	if err != nil {
		return nil, err
	}
	rd.clients = append(rd.clients, c)
	return c, nil
}

// op times one client call on target; fn returns the user payload bytes
// it moved. A failed call counts as attempted and failed and adds no
// latency sample.
func (rd *round) op(ctx context.Context, kind, target string, fn func(context.Context) (int64, error)) (int64, error) {
	var id int64
	if rd.rec != nil {
		ctx, id = rd.rec.beginOp(ctx)
	}
	start := time.Now()
	bytes, err := fn(ctx)
	end := time.Now()
	if rd.rec != nil {
		rd.rec.endOp(id, kind, start, end)
	}
	rd.mu.Lock()
	defer rd.mu.Unlock()
	rd.attempted++
	if err != nil {
		err = fmt.Errorf("%s: %w", kind, err)
		rd.errs = append(rd.errs, err)
		return id, err
	}
	rd.ops = append(rd.ops, opRec{kind: kind, target: target, dur: end.Sub(start), bytes: bytes, id: id})
	return id, nil
}

// fail records a wrong output of an operation that itself succeeded.
func (rd *round) fail(err error) {
	if err == nil {
		return
	}
	rd.mu.Lock()
	rd.errs = append(rd.errs, err)
	rd.mu.Unlock()
}

// put records one version stored. regen regenerates its bytes for the
// traced run's layer replays.
func (rd *round) put(n int, regen func([]byte) []byte) {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	rd.userPut += int64(n)
	if rd.rec != nil {
		rd.replays = append(rd.replays, regen)
	}
}

// noteUseful records, for a traced get, the share bytes its decodes
// needed: t shares of every distinct chunk of the version read.
func (rd *round) noteUseful(c *core.Client, id int64, versionID string) {
	if rd.rec == nil {
		return
	}
	m, err := c.Tree().Get(versionID)
	if err != nil {
		return
	}
	seen := make(map[string]bool)
	var n int64
	for _, ch := range m.Chunks {
		if !seen[ch.ID] {
			seen[ch.ID] = true
			n += int64(ch.T) * erasure.ShareSize(ch.Size, ch.T)
		}
	}
	rd.mu.Lock()
	rd.useful[id] = n
	rd.mu.Unlock()
}

// runRound runs round index of w.
func runRound(ctx context.Context, w workload, seed uint64, index int, rec *recorder) (result, error) {
	rd := &round{seed: seed, index: index, key: mix(seed, uint64(index)), rec: rec, useful: map[int64]int64{}}
	if rec != nil {
		rd.obs = obs.NewObserver()
	}
	runtime.GC()
	start := time.Now()
	phase, err := w.setup(ctx, rd)
	if err != nil {
		return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	setup := time.Since(start)
	runtime.GC()
	start = time.Now()
	err = phase(ctx)
	res := result{traced: rec != nil, setup: setup, phase: time.Since(start)}
	if err != nil {
		rd.fail(err)
	}
	for _, s := range rd.stores {
		res.stored += s.heldBytes()
	}
	if rec != nil {
		res.counters = counters(rd.obs)
		replay(rd, rec)
	}
	res.ops, res.attempts, res.errs, res.userPut, res.useful = rd.ops, rd.attempted, rd.errs, rd.userPut, rd.useful
	res.partialSyncs = rd.partialSyncs
	return res, nil
}

// counters sums every counter and gauge of the observer by name, keeping
// the maximum for gauges whose name ends in _peak.
func counters(o *obs.Observer) map[string]float64 {
	out := make(map[string]float64)
	for _, p := range o.Registry().Snapshot().Metrics {
		switch {
		case len(p.Name) > 5 && p.Name[len(p.Name)-5:] == "_peak":
			out[p.Name] = max(out[p.Name], p.Value)
		case p.Type == "counter":
			key := p.Name
			if r, ok := p.Labels["result"]; ok {
				key += "." + r
			}
			out[key] += p.Value
		}
	}
	return out
}

// replay times each layer's public functions on the round's own inputs:
// the chunker over every version put, SHA-1 and the erasure codec over
// every resulting chunk at the client's (t, n), and the record codec over
// every head record of each client's tree.
func replay(rd *round, rec *recorder) {
	if len(rd.clients) == 0 {
		return
	}
	t, n := rd.clients[0].Params()
	ch, err := chunker.New(chunker.Config{})
	if err != nil {
		rd.fail(err)
		return
	}
	coder := erasure.NewCoder(fmt.Sprintf("perfbench-%016x", rd.key))
	var buf []byte
	for _, regen := range rd.replays {
		buf = regen(buf)
		start := time.Now()
		chunks := ch.Split(buf)
		rec.add(span{Layer: "chunker", Name: "split", Bytes: int64(len(buf)), Objects: len(chunks)}, start, time.Now())
		for _, c := range chunks {
			rec.time("metadata", "hash", int64(len(c.Data)), func() { metadata.HashData(c.Data) })
			var shares []erasure.Share
			rec.time("erasure", "encode", int64(len(c.Data)), func() { shares, err = coder.Encode(c.Data, t, n) })
			if err != nil {
				rd.fail(err)
				return
			}
			var out []byte
			rec.time("erasure", "decode", int64(len(c.Data)), func() { out, err = coder.Decode(shares[:t], n) })
			if err == nil {
				err = checkBytes("erasure replay", out, c.Data)
			}
			erasure.ReleaseShares(shares)
			if err != nil {
				rd.fail(err)
				return
			}
		}
	}
	for _, c := range rd.clients {
		tree := c.Tree()
		for _, name := range tree.Names() {
			head, _, err := tree.Head(name)
			if err != nil {
				continue
			}
			var enc []byte
			rec.time("metadata", "record.encode", 0, func() { enc, err = metadata.Encode(head) })
			if err != nil {
				rd.fail(err)
				return
			}
			var dec *metadata.FileMeta
			rec.time("metadata", "record.decode", int64(len(enc)), func() { dec, err = metadata.Decode(enc) })
			if err == nil && dec.VersionID() != head.VersionID() {
				err = fmt.Errorf("%w: record codec round trip changed %s", errMismatch, name)
			}
			if err != nil {
				rd.fail(err)
				return
			}
		}
	}
}

// runRounds repeats rounds of w until the next round would overrun the
// run's time. A traced run runs every round key twice, untraced and then
// traced, so the tracing overhead compares identical operations.
func runRounds(ctx context.Context, w workload, seed uint64, budget time.Duration, trace bool, rec *recorder) ([]result, error) {
	start := time.Now()
	minRounds := 1
	if trace {
		minRounds = 2
	}
	var rounds []result
	var longest time.Duration
	for i := 0; ; i++ {
		var r *recorder
		index := i
		if trace {
			index = i / 2
			if i%2 == 1 {
				r = rec
			}
		}
		t0 := time.Now()
		res, err := runRound(ctx, w, seed, index, r)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, res)
		longest = max(longest, time.Since(t0))
		if i+1 >= minRounds && time.Since(start)+longest > budget {
			return rounds, nil
		}
	}
}

// errorsOf flattens the rounds' failures.
func errorsOf(rounds []result) (attempted int, errs []error) {
	for _, r := range rounds {
		attempted += r.attempts
		errs = append(errs, r.errs...)
	}
	return attempted, errs
}

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

var errNoSamples = errors.New("perfbench: workload produced no samples for a metric")
