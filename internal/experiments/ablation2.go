package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/metadata"
	"repro/internal/netsim"
)

// AblationConcurrency quantifies §3.1's design argument: CYRUS lets
// concurrent clients upload immediately and reconciles conflicts
// afterwards, while a locking protocol (DepSky's lock files + random
// backoff) serializes contending writers. We measure the makespan of k
// clients each writing its own update to the same file "at the same time".
//
// CYRUS writers proceed fully in parallel (their updates become sibling
// versions, resolved later); lock-protocol writers queue behind the
// backoff — under contention a writer that sees a foreign lock must back
// off and retry, so total time grows roughly linearly in k.
func AblationConcurrency(seed int64) (Report, error) {
	r := Report{
		ID:      "ablation-concurrency",
		Title:   "Concurrent updates to one file: optimistic (CYRUS) vs lock files (DepSky-style)",
		Columns: []string{"writers", "cyrus makespan", "lock-protocol makespan", "speedup"},
		Notes: []string{
			"each writer uploads a 1 MB update to the same file; CYRUS writers run in parallel and reconcile afterwards (paper §3.1/§5.4); lock-file writers serialize behind lock + backoff (footnote: 'a locking or overwriting approach requires creating lock files and checking them after a random backoff time, leading to long delays')",
		},
	}
	for _, writers := range []int{1, 2, 4, 8} {
		cyrusT, err := concurrencyCyrus(seed, writers)
		if err != nil {
			return r, err
		}
		lockT, err := concurrencyLocking(seed, writers)
		if err != nil {
			return r, err
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprint(writers), secs(cyrusT), secs(lockT), fmt.Sprintf("%.1fx", lockT/cyrusT),
		})
	}
	return r, nil
}

// concurrencyCyrus times k CYRUS clients concurrently updating one file.
func concurrencyCyrus(seed int64, writers int) (float64, error) {
	env := newSimEnv(netsim.NodeConfig{}, realWorld4())
	rng := rand.New(rand.NewSource(seed))
	payloads := make([][]byte, writers)
	for i := range payloads {
		payloads[i] = make([]byte, 1*MB)
		rng.Read(payloads[i])
	}
	var out float64
	var err error
	env.net.Run(func() {
		// Seed the shared file so every writer updates the same parent.
		seedClient, cerr := env.newClient("seed", 2, 3, noChunking(), nil)
		if cerr != nil {
			err = cerr
			return
		}
		if perr := seedClient.Put(bg, "shared.doc", []byte("base")); perr != nil {
			err = perr
			return
		}
		// Client setup (authentication) happens outside the timed window,
		// symmetric with the locking side.
		clients := make([]*core.Client, writers)
		for i := 0; i < writers; i++ {
			client, cerr := env.newClient(fmt.Sprintf("w%d", i), 2, 3, noChunking(), nil)
			if cerr != nil {
				err = cerr
				return
			}
			clients[i] = client
		}
		start := env.net.VirtualNow()
		var mu sync.Mutex
		g := env.net.NewGroup()
		for i := 0; i < writers; i++ {
			i := i
			g.Add(1)
			env.net.Go(func() {
				defer g.Done()
				if perr := clients[i].Put(bg, "shared.doc", payloads[i]); perr != nil {
					mu.Lock()
					err = perr
					mu.Unlock()
				}
			})
		}
		g.Wait()
		out = env.net.VirtualNow() - start
	})
	return out, err
}

// concurrencyLocking times k writers that must each hold the DepSky-style
// lock while writing: a writer seeing a foreign lock backs off a random
// 1-3 s and retries, serializing the group.
func concurrencyLocking(seed int64, writers int) (float64, error) {
	env := newSimEnv(netsim.NodeConfig{}, realWorld4())
	rng := rand.New(rand.NewSource(seed))
	payloads := make([][]byte, writers)
	for i := range payloads {
		payloads[i] = make([]byte, 1*MB)
		rng.Read(payloads[i])
	}
	var out float64
	var err error
	env.net.Run(func() {
		stores, serr := env.stores()
		if serr != nil {
			err = serr
			return
		}
		ds, derr := baseline.NewDepSky("experiment-key", 2, 3, stores, env.net, env.linkBps(),
			baseline.WithSeed(seed), baseline.WithBackoff(3*time.Second))
		if derr != nil {
			err = derr
			return
		}
		// The lock protocol admits one writer at a time; contenders retry
		// after a backoff. We model the queue faithfully-but-simply: a
		// virtual mutex whose waiters sleep their backoff before retrying.
		lock := make(chan struct{}, 1)
		lock <- struct{}{}
		start := env.net.VirtualNow()
		var mu sync.Mutex
		g := env.net.NewGroup()
		for i := 0; i < writers; i++ {
			i := i
			// Writers run concurrently between netsim blocking points, so
			// each gets its own backoff stream (math/rand.Rand is not
			// goroutine-safe).
			wrng := rand.New(rand.NewSource(seed + int64(i)*7919))
			g.Add(1)
			env.net.Go(func() {
				defer g.Done()
				for {
					select {
					case <-lock:
					default:
						// Foreign lock seen: back off and re-check (one
						// list round trip + random 1-3 s).
						env.net.Sleep(time.Duration(1+wrng.Intn(2000))*time.Millisecond + time.Second)
						continue
					}
					if uerr := ds.Upload(bg, fmt.Sprintf("shared-%d.doc", i), payloads[i]); uerr != nil {
						mu.Lock()
						err = uerr
						mu.Unlock()
					}
					lock <- struct{}{}
					return
				}
			})
		}
		g.Wait()
		out = env.net.VirtualNow() - start
	})
	return out, err
}

// AblationMetadata measures metadata overhead: serialized metadata bytes
// per stored data byte across file sizes, validating the paper's "the
// metadata is both much smaller than the actual shares and accessed more
// often" separation argument (§5).
func AblationMetadata(seed int64) (Report, error) {
	r := Report{
		ID:      "ablation-metadata",
		Title:   "Metadata size vs file size ((2,3) sharing, 4 MB-average chunks)",
		Columns: []string{"file size", "chunks", "metadata bytes", "per-CSP share of it", "overhead"},
		Notes: []string{
			"metadata records are secret-shared (t=2) to every CSP; 'per-CSP share' is what one provider actually stores",
		},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, size := range []int64{64 << 10, 1 << 20, 16 << 20, 128 << 20} {
		nChunks := int((size + 4*MB - 1) / (4 * MB))
		m := &metadata.FileMeta{Format: metadata.FormatV2, File: metadata.FileMap{
			ClientID: "client", Name: "file.bin",
			Modified: time.Date(2014, 7, 1, 0, 0, 0, 0, time.UTC), Size: size,
		}}
		var off int64
		for i := 0; i < nChunks; i++ {
			csize := int64(4 * MB)
			if off+csize > size {
				csize = size - off
			}
			id := metadata.HashData([]byte(fmt.Sprintf("%d-%d-%d", seed, size, i)))
			m.Chunks = append(m.Chunks, metadata.ChunkRef{ID: id, Offset: off, Size: csize, T: 2, N: 3})
			off += csize
			for s := 0; s < 3; s++ {
				m.Shares = append(m.Shares, metadata.ShareLoc{ChunkID: id, Index: s, CSP: fmt.Sprintf("csp-%d", rng.Intn(4))})
			}
		}
		m.File.ID = metadata.ChunkListID(m.Chunks)
		enc, err := metadata.Encode(m)
		if err != nil {
			return r, err
		}
		perCSP := (len(enc) + 1) / 2 // t=2 share size
		r.Rows = append(r.Rows, []string{
			mb(size), fmt.Sprint(nChunks), fmt.Sprint(len(enc)), fmt.Sprint(perCSP),
			fmt.Sprintf("%.5f%%", 100*float64(len(enc))/float64(size)),
		})
	}
	return r, nil
}
