package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// The workloads and why each was chosen are described in README.md.
var workloads = []workload{
	{name: "bulk", setup: bulkSetup},
	{name: "smallfiles", setup: smallSetup},
	{name: "wan", setup: wanSetup},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// versions maps version IDs a writer produced to (file, gen), so a reader
// that sees a version can check it against the generated content. A
// writer records a version right after its put returns; a reader that
// gets there first waits for the record.
type versions struct {
	mu   sync.Mutex
	cond *sync.Cond
	ids  map[string][2]int
}

func newVersions() *versions {
	v := &versions{ids: make(map[string][2]int)}
	v.cond = sync.NewCond(&v.mu)
	return v
}

func (v *versions) record(id string, file, gen int) {
	v.mu.Lock()
	v.ids[id] = [2]int{file, gen}
	v.mu.Unlock()
	v.cond.Broadcast()
}

// lookup waits up to 10 s for id to be recorded.
func (v *versions) lookup(id string) (file, gen int, ok bool) {
	deadline := time.Now().Add(10 * time.Second)
	wake := time.AfterFunc(10*time.Second, func() {
		v.mu.Lock() // a waiter between its deadline check and Wait holds mu
		v.cond.Broadcast()
		v.mu.Unlock()
	})
	defer wake.Stop()
	v.mu.Lock()
	defer v.mu.Unlock()
	for {
		if fg, ok := v.ids[id]; ok {
			return fg[0], fg[1], true
		}
		if !time.Now().Before(deadline) {
			return 0, 0, false
		}
		v.cond.Wait()
	}
}

// recordHead records the head version c holds for name as (file, gen).
func (v *versions) recordHead(c *core.Client, name string, file, gen int) error {
	info, err := c.StatLocal(name)
	if err != nil {
		return err
	}
	v.record(info.VersionID, file, gen)
	return nil
}

// ---- bulk ----------------------------------------------------------------

const (
	bulkProviders = 4
	bulkMinSize   = 4 << 20
	bulkMaxSize   = 32 << 20
	bulkBaseFiles = 2 // files put during set-up
	bulkNewFiles  = 3 // files put in the measured phase
	bulkEditMin   = 1 << 10
	bulkEditMax   = 8 << 10
)

// bulkStep is one operation of a bulk round on file number file.
type bulkStep struct {
	kind string // new, edit or get
	file int
}

// bulkPlan interleaves at random the put of each new file with one edited
// re-put and two gets of every file of the round, each after its file
// exists. Every file is edited once and read twice, so a round's put and
// get sizes are exactly its file sizes.
func bulkPlan(r *rand.Rand) []bulkStep {
	var ready, out []bulkStep
	for f := 0; f < bulkBaseFiles; f++ {
		ready = append(ready, bulkStep{"edit", f}, bulkStep{"get", f}, bulkStep{"get", f})
	}
	next, news := bulkBaseFiles, bulkNewFiles
	for len(ready)+news > 0 {
		k := r.IntN(len(ready) + news)
		if k >= len(ready) {
			out = append(out, bulkStep{"new", next})
			ready = append(ready, bulkStep{"edit", next}, bulkStep{"get", next}, bulkStep{"get", next})
			next++
			news--
			continue
		}
		out = append(out, ready[k])
		ready = append(ready[:k], ready[k+1:]...)
	}
	return out
}

// bulkFile is one large file and the edits that made its versions.
// Version v is the base content with the first v edits applied.
type bulkFile struct {
	idx   int
	name  string
	size0 int
	edits []bulkEdit
	vids  []string // version IDs, by version number
}

type bulkEdit struct {
	insert bool
	off, n int
}

// size returns the length of version v.
func (f *bulkFile) size(v int) int {
	n := f.size0
	for _, e := range f.edits[:v] {
		if e.insert {
			n += e.n
		}
	}
	return n
}

// content regenerates version v into buf.
func (f *bulkFile) content(buf []byte, key uint64, v int) []byte {
	total := f.size(v)
	if cap(buf) < total {
		buf = make([]byte, total)
	}
	cur := f.size0
	fill(buf[:cur], key, f.idx, 0)
	for k, e := range f.edits[:v] {
		end := min(e.off+e.n, cur)
		if e.insert {
			copy(buf[e.off+e.n:cur+e.n], buf[e.off:cur])
			cur += e.n
			end = e.off + e.n
		}
		fillRandom(buf[e.off:end], mix(key, uint64(f.idx), uint64(k+1)))
	}
	return buf[:total]
}

// bulkSetup: one caller, four instant providers, unique random files of
// 4-32 MiB (log-uniform sizes). The phase mixes new-file puts, edited
// re-puts (a few KiB overwritten or inserted, so content-defined chunking
// re-aligns) and gets of a random earlier version (see bulkPlan). Every
// put is followed by a sync and a stat that checks size and version.
func bulkSetup(ctx context.Context, rd *round) (func(context.Context) error, error) {
	names := make([]string, bulkProviders)
	for i := range names {
		names[i] = fmt.Sprintf("csp%d", i)
	}
	rd.newStores(names, nil)
	c, err := rd.newClient(ctx, "bulk")
	if err != nil {
		return nil, err
	}
	r := newRand(rd.key, 1)
	var files []*bulkFile
	var putBuf, wantBuf []byte

	newFile := func() *bulkFile {
		f := &bulkFile{idx: len(files), name: fmt.Sprintf("bulk/%03d.bin", len(files)),
			size0: rd.size(len(files), bulkBaseFiles+bulkNewFiles, bulkMinSize, bulkMaxSize)}
		files = append(files, f)
		return f
	}
	// putVersion stores the file's newest version; timed says whether it
	// is a measured operation or part of set-up.
	putVersion := func(ctx context.Context, f *bulkFile, timed bool) error {
		v := len(f.edits)
		putBuf = f.content(putBuf, rd.key, v)
		data := putBuf
		if timed {
			if _, err := rd.op(ctx, "put", f.name, func(ctx context.Context) (int64, error) {
				return int64(len(data)), c.Put(ctx, f.name, data)
			}); err != nil {
				return nil
			}
		} else if err := c.Put(ctx, f.name, data); err != nil {
			return err
		}
		rd.put(len(data), func(b []byte) []byte { return f.content(b, rd.key, v) })
		info, err := c.StatLocal(f.name)
		if err != nil {
			return err
		}
		f.vids = append(f.vids, info.VersionID)
		if !timed {
			return nil
		}
		if _, err := rd.op(ctx, "sync", "", rd.syncOp(c)); err != nil {
			return nil
		}
		var st core.FileInfo
		if _, err := rd.op(ctx, "stat", f.name, statOp(c, f.name, &st)); err != nil {
			return nil
		}
		if st.Size != int64(len(data)) || st.VersionID != f.vids[v] || st.Deleted {
			rd.fail(fmt.Errorf("%w: stat %s: size %d version %s, want %d %s", errMismatch, f.name, st.Size, st.VersionID, len(data), f.vids[v]))
		}
		return nil
	}

	for i := 0; i < bulkBaseFiles; i++ {
		if err := putVersion(ctx, newFile(), false); err != nil {
			return nil, err
		}
	}
	return func(ctx context.Context) error {
		for _, step := range bulkPlan(r) {
			switch step.kind {
			case "new":
				if err := putVersion(ctx, newFile(), true); err != nil {
					return err
				}
			case "edit":
				f := files[step.file]
				cur := f.size(len(f.edits))
				e := bulkEdit{insert: r.IntN(2) == 0, off: headerLen + r.IntN(cur-headerLen), n: logUniform(r, bulkEditMin, bulkEditMax)}
				f.edits = append(f.edits, e)
				if err := putVersion(ctx, f, true); err != nil {
					return err
				}
			case "get":
				f := files[step.file]
				v := r.IntN(len(f.vids))
				wantBuf = f.content(wantBuf, rd.key, v)
				var got []byte
				id, err := rd.op(ctx, "get", f.name, func(ctx context.Context) (_ int64, err error) {
					got, _, err = c.GetVersion(ctx, f.name, f.vids[v])
					return int64(len(got)), err
				})
				if err != nil {
					continue
				}
				rd.fail(checkBytes(fmt.Sprintf("get %s v%d", f.name, v), got, wantBuf))
				rd.noteUseful(c, id, f.vids[v])
			}
		}
		return nil
	}, nil
}

// ---- smallfiles ----------------------------------------------------------

const (
	smallProviders = 5
	smallFiles     = 1000 // live files, held constant
	smallStable    = 800  // files 0..smallStable-1 are never deleted
	smallMinSize   = 1 << 10
	smallMaxSize   = 64 << 10
)

// The writer's units are overwrites and churn pairs (create a file, then
// delete the oldest churn file); the reader syncs, stats and gets.
var (
	smallWriterMix = []mixEntry{{"put", 240}, {"churn", 80}}
	smallReaderMix = []mixEntry{{"sync", 120}, {"stat", 240}, {"get", 240}}
)

func smallName(file int) string { return fmt.Sprintf("docs/%05d.txt", file) }

// smallSize is the size of version gen of file. The population's sizes
// are consecutive points of the round's low-discrepancy sequence.
func smallSize(key uint64, file, gen int) int {
	return logSize(spread(key, file+gen*1000003), smallMinSize, smallMaxSize)
}

// smallSetup: two clients, a writer and a reader with one caller each,
// sharing five instant providers. Set-up creates the population; the
// phase is a fixed number of operations. The writer overwrites, creates
// and deletes with the live count held constant; the reader syncs, stats
// and gets files the writer never deletes. After the phase the reader's
// synced namespace must equal the writer's.
func smallSetup(ctx context.Context, rd *round) (func(context.Context) error, error) {
	names := make([]string, smallProviders)
	for i := range names {
		names[i] = fmt.Sprintf("csp%d", i)
	}
	rd.newStores(names, nil)
	w, err := rd.newClient(ctx, "writer")
	if err != nil {
		return nil, err
	}
	vers := newVersions()
	var buf []byte
	content := func(file, gen int) []byte {
		buf = generate(buf, rd.key, file, gen, smallSize(rd.key, file, gen))
		return buf
	}
	afterPut := func(file, gen, n int) error {
		rd.put(n, func(b []byte) []byte { return generate(b, rd.key, file, gen, smallSize(rd.key, file, gen)) })
		return vers.recordHead(w, smallName(file), file, gen)
	}
	for f := 0; f < smallFiles; f++ {
		data := content(f, 0)
		if err := w.Put(ctx, smallName(f), data); err != nil {
			return nil, err
		}
		if err := afterPut(f, 0, len(data)); err != nil {
			return nil, err
		}
	}
	rc, err := rd.newClient(ctx, "reader")
	if err != nil {
		return nil, err
	}
	if _, err := rc.Sync(ctx); err != nil {
		return nil, err
	}

	// The writer's sequence: overwrites of any stable file, and
	// create-then-delete pairs that retire the oldest churn file.
	type wop struct {
		kind string
		file int
	}
	wr := newRand(rd.key, 2)
	var wops []wop
	churn := make([]int, 0, smallFiles-smallStable)
	for f := smallStable; f < smallFiles; f++ {
		churn = append(churn, f)
	}
	next := smallFiles
	for _, kind := range plan(wr, smallWriterMix) {
		if kind == "put" {
			wops = append(wops, wop{"put", wr.IntN(smallStable)})
			continue
		}
		wops = append(wops, wop{"create", next}, wop{"delete", churn[0]})
		churn = append(churn[1:], next)
		next++
	}
	gens := make([]int, smallStable)
	started := make([]atomic.Int32, smallStable) // newest gen whose put began

	writer := func(ctx context.Context) {
		for _, o := range wops {
			switch o.kind {
			case "delete":
				rd.op(ctx, "delete", smallName(o.file), func(ctx context.Context) (int64, error) { return 0, w.Delete(ctx, smallName(o.file)) })
			default:
				gen := 0
				if o.kind == "put" {
					gens[o.file]++
					gen = gens[o.file]
					started[o.file].Store(int32(gen))
				}
				data := content(o.file, gen)
				if _, err := rd.op(ctx, "put", smallName(o.file), func(ctx context.Context) (int64, error) {
					return int64(len(data)), w.Put(ctx, smallName(o.file), data)
				}); err != nil {
					continue
				}
				rd.fail(afterPut(o.file, gen, len(data)))
			}
		}
	}

	reader := func(ctx context.Context) {
		rr := newRand(rd.key, 3)
		seen := make([]int, smallStable) // newest gen observed per file
		var want []byte
		// check verifies an observed (file, gen) of a stable file: the
		// right file, a version whose put began, never older than one
		// already seen.
		check := func(what string, f, file, gen int) bool {
			if file != f || gen > int(started[f].Load()) || gen < seen[f] {
				rd.fail(fmt.Errorf("%w: %s %s: got file %d gen %d, seen gen %d", errMismatch, what, smallName(f), file, gen, seen[f]))
				return false
			}
			seen[f] = gen
			return true
		}
		for _, kind := range plan(rr, smallReaderMix) {
			f := rr.IntN(smallStable)
			switch kind {
			case "sync":
				rd.op(ctx, "sync", "", rd.syncOp(rc))
			case "stat":
				var st core.FileInfo
				if _, err := rd.op(ctx, "stat", smallName(f), statOp(rc, smallName(f), &st)); err != nil {
					continue
				}
				file, gen, ok := vers.lookup(st.VersionID)
				if !ok || st.Deleted {
					rd.fail(fmt.Errorf("%w: stat %s: unknown version %s", errMismatch, smallName(f), st.VersionID))
					continue
				}
				if check("stat", f, file, gen) && st.Size != int64(smallSize(rd.key, file, gen)) {
					rd.fail(fmt.Errorf("%w: stat %s: size %d", errMismatch, smallName(f), st.Size))
				}
			case "get":
				var got []byte
				var info core.FileInfo
				id, err := rd.op(ctx, "get", smallName(f), getOp(rc, smallName(f), &got, &info))
				if err != nil {
					continue
				}
				file, gen, ok := parseHeader(got)
				if !ok || !check("get", f, file, gen) {
					continue
				}
				want = generate(want, rd.key, file, gen, smallSize(rd.key, file, gen))
				rd.fail(checkBytes("get "+smallName(f), got, want))
				rd.noteUseful(rc, id, info.VersionID)
			}
		}
	}

	return func(ctx context.Context) error {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); writer(ctx) }()
		go func() { defer wg.Done(); reader(ctx) }()
		wg.Wait()
		if _, err := rc.Sync(ctx); err != nil {
			return err
		}
		return sameNamespace(w, rc, smallFiles)
	}, nil
}

// sameNamespace checks that the reader's view equals the writer's and
// holds want live files.
func sameNamespace(w, r *core.Client, want int) error {
	wl, err := w.ListLocal("")
	if err != nil {
		return err
	}
	rl, err := r.ListLocal("")
	if err != nil {
		return err
	}
	if len(wl) != want || len(rl) != len(wl) {
		return fmt.Errorf("%w: writer lists %d files, reader %d, want %d", errMismatch, len(wl), len(rl), want)
	}
	for i := range wl {
		if wl[i].Name != rl[i].Name || wl[i].VersionID != rl[i].VersionID || wl[i].Size != rl[i].Size {
			return fmt.Errorf("%w: reader has %s@%s, writer %s@%s", errMismatch, rl[i].Name, rl[i].VersionID, wl[i].Name, wl[i].VersionID)
		}
	}
	return nil
}

// ---- wan -----------------------------------------------------------------

const (
	wanFast, wanSlow = 4, 3
	wanFastBps       = 120e6 // the paper's 15 MB/s testbed links, scaled 8x
	wanSlowBps       = 16e6  // the paper's 2 MB/s, scaled 8x
	wanFastRTT       = 20 * time.Millisecond
	wanSlowRTT       = 40 * time.Millisecond
	wanStraggle      = 300 * time.Millisecond // extra delay of a straggling call
	wanStraggleEvery = 200                    // one call in this many straggles
	wanFiles         = 16
	wanMinSize       = 256 << 10
	wanMaxSize       = 4 << 20
)

// One caller's phase: 1 put : 3 gets, with stats and syncs.
const wanPuts, wanGets, wanStats, wanSyncs = 8, 24, 4, 4

func wanName(file int) string { return fmt.Sprintf("media/%02d.bin", file) }

// wanSetup: one client with two callers and seven providers, 4 fast and 3
// slow, each behind a real-time link. One fast provider straggles on a
// schedule keyed to its call count and the round key. Files are
// 256 KiB-4 MiB at a 1 put : 3 get mix, with stats and syncs. A put
// replaces a file's content but keeps its size, and each caller's put and
// get targets cycle through seeded permutations of the files, so every
// round's operation sizes are its file sizes.
func wanSetup(ctx context.Context, rd *round) (func(context.Context) error, error) {
	var names []string
	var links []*link
	for i := 0; i < wanFast+wanSlow; i++ {
		l := &link{rtt: wanFastRTT, bps: wanFastBps}
		name := fmt.Sprintf("fast%d", i)
		if i >= wanFast {
			l = &link{rtt: wanSlowRTT, bps: wanSlowBps}
			name = fmt.Sprintf("slow%d", i-wanFast) // the "slow" prefix marks slow links in the trace
		}
		if i == 0 {
			key := rd.key
			l.straggle = func(call uint64) time.Duration {
				if mix(key, call)%wanStraggleEvery == 0 {
					return wanStraggle
				}
				return 0
			}
		}
		names = append(names, name)
		links = append(links, l)
	}
	rd.newStores(names, links)
	c, err := rd.newClient(ctx, "wan")
	if err != nil {
		return nil, err
	}
	vers := newVersions()
	gens := make([]int, wanFiles) // file f is written only by caller f%2
	size := func(file int) int { return rd.size(file, wanFiles, wanMinSize, wanMaxSize) }
	content := func(file int, buf []byte) []byte {
		return generate(buf, rd.key, file, gens[file], size(file))
	}
	afterPut := func(file int, n int) error {
		gen := gens[file]
		rd.put(n, func(b []byte) []byte { return generate(b, rd.key, file, gen, size(file)) })
		return vers.recordHead(c, wanName(file), file, gen)
	}
	// Each caller puts its own files.
	setupErrs := make([]error, 2)
	var wg sync.WaitGroup
	for who := 0; who < 2; who++ {
		wg.Add(1)
		go func(who int) {
			defer wg.Done()
			var buf []byte
			for f := who; f < wanFiles && setupErrs[who] == nil; f += 2 {
				buf = content(f, buf)
				setupErrs[who] = c.Put(ctx, wanName(f), buf)
				if setupErrs[who] == nil {
					setupErrs[who] = afterPut(f, len(buf))
				}
			}
		}(who)
	}
	wg.Wait()
	if err := errors.Join(setupErrs...); err != nil {
		return nil, err
	}

	caller := func(ctx context.Context, who int) {
		r := newRand(rd.key, 4, uint64(who))
		var buf, want []byte
		kinds := plan(r, []mixEntry{{"put", wanPuts}, {"get", wanGets}, {"stat", wanStats}, {"sync", wanSyncs}})
		puts, gets := cycle(r, wanFiles/2, wanPuts), cycle(r, wanFiles, wanGets)
		for _, kind := range kinds {
			f := r.IntN(wanFiles)
			switch kind {
			case "put":
				f, puts = 2*puts[0]+who, puts[1:] // a caller writes only its own files
				gens[f]++
				buf = content(f, buf)
				data := buf
				if _, err := rd.op(ctx, "put", wanName(f), func(ctx context.Context) (int64, error) {
					return int64(len(data)), c.Put(ctx, wanName(f), data)
				}); err != nil {
					continue
				}
				rd.fail(afterPut(f, len(buf)))
			case "get":
				f, gets = gets[0], gets[1:]
				var got []byte
				var info core.FileInfo
				id, err := rd.op(ctx, "get", wanName(f), getOp(c, wanName(f), &got, &info))
				if err != nil {
					continue
				}
				file, gen, ok := parseHeader(got)
				if !ok || file != f {
					rd.fail(fmt.Errorf("%w: get %s: header names file %d", errMismatch, wanName(f), file))
					continue
				}
				want = generate(want, rd.key, file, gen, size(file))
				rd.fail(checkBytes("get "+wanName(f), got, want))
				rd.noteUseful(c, id, info.VersionID)
			case "stat":
				var st core.FileInfo
				if _, err := rd.op(ctx, "stat", wanName(f), statOp(c, wanName(f), &st)); err != nil {
					continue
				}
				file, _, ok := vers.lookup(st.VersionID)
				if !ok || file != f || st.Deleted || st.Size != int64(size(file)) {
					rd.fail(fmt.Errorf("%w: stat %s: version %s size %d", errMismatch, wanName(f), st.VersionID, st.Size))
				}
			case "sync":
				rd.op(ctx, "sync", "", rd.syncOp(c))
			}
		}
	}

	return func(ctx context.Context) error {
		var wg sync.WaitGroup
		for who := 0; who < 2; who++ {
			wg.Add(1)
			go func(who int) { defer wg.Done(); caller(ctx, who) }(who)
		}
		wg.Wait()
		return nil
	}, nil
}

// syncOp adapts Sync to round.op. A Sync that lists a record while its
// writer is still uploading the record's shares finds fewer than MetaT of
// them and returns ErrDamaged next to its progress; the record is
// absorbed by a later Sync (the final namespace check proves none is
// lost). Such a Sync completed with a partial view: it is counted as
// partial, not failed.
func (rd *round) syncOp(c *core.Client) func(context.Context) (int64, error) {
	return func(ctx context.Context) (int64, error) {
		_, err := c.Sync(ctx)
		if errors.Is(err, core.ErrDamaged) {
			rd.mu.Lock()
			rd.partialSyncs++
			rd.mu.Unlock()
			return 0, nil
		}
		return 0, err
	}
}

// statOp and getOp adapt client calls to round.op.

func statOp(c *core.Client, name string, st *core.FileInfo) func(context.Context) (int64, error) {
	return func(ctx context.Context) (int64, error) {
		var err error
		*st, err = c.Stat(ctx, name)
		return 0, err
	}
}

func getOp(c *core.Client, name string, got *[]byte, info *core.FileInfo) func(context.Context) (int64, error) {
	return func(ctx context.Context) (int64, error) {
		var err error
		*got, *info, err = c.Get(ctx, name)
		return int64(len(*got)), err
	}
}
