package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/erasure"
	"repro/internal/metadata"
	"repro/internal/transfer"
)

// Get downloads the current version of a file — get(s, f), Algorithm 3.
// The returned FileInfo reports whether the file is in a conflicted state
// (competing concurrent versions exist); the returned bytes are the
// deterministic winning head.
func (c *Client) Get(ctx context.Context, name string) (_ []byte, _ FileInfo, err error) {
	ctx, sp := c.obs.StartOp(ctx, "get")
	defer func() { sp.End(err) }()
	// Algorithm 3 line 2, short-circuited by a warm cache hit (zero
	// metadata round trips; see headForRead).
	head, conflicted, err := c.headForRead(ctx, name)
	if err != nil {
		return nil, FileInfo{}, err
	}
	info := fileInfo(head, conflicted)
	if head.File.Deleted {
		return nil, info, fmt.Errorf("%w: %q", ErrFileDeleted, name)
	}
	data, err := c.fetchVersion(ctx, head)
	if err != nil {
		return nil, info, err
	}
	return data, info, nil
}

// GetVersion downloads a specific version of a file — get(s, f, v).
func (c *Client) GetVersion(ctx context.Context, name, versionID string) (_ []byte, _ FileInfo, err error) {
	ctx, sp := c.obs.StartOp(ctx, "get")
	defer func() { sp.End(err) }()
	m, err := c.tree.Get(versionID)
	if err != nil {
		return nil, FileInfo{}, err
	}
	if m.File.Name != name {
		return nil, FileInfo{}, fmt.Errorf("cyrus: version %s belongs to %q, not %q", versionID, m.File.Name, name)
	}
	info := fileInfo(m, false)
	if m.File.Deleted {
		return nil, info, fmt.Errorf("%w: version %s", ErrFileDeleted, versionID)
	}
	data, err := c.fetchVersion(ctx, m)
	if err != nil {
		return nil, info, err
	}
	return data, info, nil
}

// fetchVersion is the batch wrapper over the streaming fetchTo: it
// collects the whole version into one buffer (accounted as resident for
// its duration) and returns it. All gather/verify/migrate logic lives in
// fetchTo (stream.go).
func (c *Client) fetchVersion(ctx context.Context, m *metadata.FileMeta) ([]byte, error) {
	if len(m.Chunks) == 0 {
		return []byte{}, nil
	}
	c.acctAdd(m.File.Size)
	defer c.acctSub(m.File.Size)
	buf := bytes.NewBuffer(make([]byte, 0, m.File.Size))
	if err := c.fetchTo(ctx, m, 0, m.File.Size, buf, true); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// gatherChunk downloads t shares of one chunk (preferring the optimizer's
// pick, falling back to any other stored location on error), decodes, and
// verifies content. Algorithm 3's Gather. Each picked source runs as a
// hedged download: when a source exceeds its load-predicted latency, the
// engine launches one backup read from the fallback pool and the first
// success wins. With Config.RaceReads > 0 the per-source hedges are
// replaced by one k-out-of-n race: every source plus up to RaceReads
// redundant fallback lanes start together and losers are cancelled the
// moment ref.T shares land.
func (c *Client) gatherChunk(op *transfer.Op, file string, ref metadata.ChunkRef, locations map[int]string, sources []string) (_ []byte, err error) {
	chunkStart := c.rt.Now()
	ctx, chunkSpan := c.obs.Trace(op.Context(), "chunk.gather")
	defer func() { chunkSpan.End(err) }()
	// CAS chunks live under content-addressed names and decode with the
	// content-derived coder; coderFor fails fast when the deployment secret
	// is missing, so shareNameFor below cannot.
	coder, err := c.coderFor(ref)
	if err != nil {
		return nil, err
	}
	shareObj := func(idx int) string {
		name, _ := c.shareNameFor(ref, idx)
		return name
	}
	// Index each CSP's share index.
	idxOf := make(map[string]int, len(locations))
	for idx, cspName := range locations {
		idxOf[cspName] = idx
	}
	// Fallback pool: stored locations not in the primary pick.
	primary := append([]string(nil), sources...)
	inPrimary := make(map[string]bool, len(primary))
	for _, s := range primary {
		inPrimary[s] = true
	}
	var fallback []string
	for cspName := range idxOf {
		if !inPrimary[cspName] && c.readable(cspName) {
			fallback = append(fallback, cspName)
		}
	}
	sort.Strings(fallback)

	shareBytes := erasure.ShareSize(ref.Size, ref.T)

	// got is written by attempt Run closures, which a hedge loser may
	// still execute after this function returned — every access stays
	// under mu and the decode below works on a snapshot.
	var mu sync.Mutex
	var got []erasure.Share
	var firstErr error

	attemptFor := func(cspName string) transfer.Attempt {
		idx := idxOf[cspName]
		return transfer.Attempt{
			CSP:  cspName,
			Kind: opDownload,
			Run: func(actx context.Context) (int64, error) {
				store, ok := c.store(cspName)
				if !ok {
					return 0, errProviderVanished(cspName)
				}
				data, err := store.Download(actx, shareObj(idx))
				if err == nil {
					mu.Lock()
					got = append(got, erasure.Share{Index: idx, Data: data})
					mu.Unlock()
				}
				return int64(len(data)), err
			},
			Done: func(aerr error, bytes int64, elapsed time.Duration) {
				c.events.emit(Event{Type: EvShareGet, File: file, ChunkID: ref.ID, Index: idx, CSP: cspName, Bytes: bytes, Duration: elapsed, Err: aerr})
			},
		}
	}

	// pullFallback feeds both the per-source failover walk and the hedge
	// lane; the shared cursor means no fallback location is fetched twice.
	pullFallback := func() (transfer.Attempt, bool) {
		mu.Lock()
		defer mu.Unlock()
		for len(fallback) > 0 {
			cand := fallback[0]
			fallback = fallback[1:]
			if op.Failed(cand) || !c.readable(cand) {
				continue
			}
			return attemptFor(cand), true
		}
		return transfer.Attempt{}, false
	}

	if r := c.cfg.RaceReads; r > 0 {
		// Race mode (k-out-of-n reads): all picked sources start at once
		// plus up to r redundant lanes from the fallback pool, load
		// permitting. The race resolves when the decode quorum (ref.T
		// distinct shares) lands and losers are cancelled; a loser's Run
		// may still append to got afterwards, which is harmless — the
		// decode below works on a snapshot and tolerates surplus shares.
		atts := make([]transfer.Attempt, 0, len(primary))
		for _, src := range primary {
			att := attemptFor(src)
			if op.Failed(src) {
				var ok bool
				if att, ok = pullFallback(); !ok {
					continue
				}
			}
			atts = append(atts, att)
		}
		if err := op.Race(ctx, atts, ref.T, r, pullFallback); err != nil {
			mu.Lock()
			if firstErr == nil && !errors.Is(err, transfer.ErrSkipped) {
				firstErr = err
			}
			mu.Unlock()
		}
	} else {
		op.Each(len(primary), func(k int) {
			src := primary[k]
			att := attemptFor(src)
			if op.Failed(src) {
				var ok bool
				if att, ok = pullFallback(); !ok {
					return
				}
			}
			if err := op.Hedged(ctx, att, c.hedgeAfter(ctx, src, shareBytes), pullFallback); err != nil {
				mu.Lock()
				if firstErr == nil && !errors.Is(err, transfer.ErrSkipped) {
					firstErr = err
				}
				mu.Unlock()
			}
		})
	}

	mu.Lock()
	shares := append([]erasure.Share(nil), got...)
	lastErr := firstErr
	mu.Unlock()
	if len(shares) < ref.T {
		return nil, fmt.Errorf("%w: chunk %s: %d of %d shares (last error: %v)",
			ErrDamaged, ref.ID[:8], len(shares), ref.T, lastErr)
	}
	// Decode and verify on the codec pool: bounded CPU slots, overlapping
	// the share downloads of sibling chunks still in flight.
	var data []byte
	c.codec.run("decode", ref.Size, func() {
		data, err = coder.Decode(shares, erasure.MaxN)
		if err == nil {
			err = verifyChunk(ref, data)
		}
	})
	if err != nil {
		// A fetched share may be corrupt (bit rot, a tampering provider).
		// Fetch every remaining reachable share and run the correcting
		// decoder (paper §7.1: the R-S code recovers through errored
		// shares given surplus).
		data, err = c.gatherCorrecting(op, ctx, file, ref, locations, shares)
		if err != nil {
			return nil, err
		}
	}
	c.events.emit(Event{Type: EvChunkComplete, File: file, ChunkID: ref.ID, Duration: c.rt.Now().Sub(chunkStart)})
	return data, nil
}

// gatherCorrecting fetches all remaining reachable shares of a chunk and
// decodes the t-subset whose data matches the chunk's ID and size.
// Identified-corrupt shares are re-written with correct bytes
// (self-healing) on a best-effort basis.
func (c *Client) gatherCorrecting(op *transfer.Op, ctx context.Context, file string, ref metadata.ChunkRef, locations map[int]string, have []erasure.Share) ([]byte, error) {
	coder, err := c.coderFor(ref)
	if err != nil {
		return nil, err
	}
	shareObj := func(idx int) string {
		name, _ := c.shareNameFor(ref, idx)
		return name
	}
	seen := make(map[int]bool, len(have))
	for _, s := range have {
		seen[s.Index] = true
	}
	all := append([]erasure.Share(nil), have...)
	for idx, cspName := range locations {
		if seen[idx] || !c.readable(cspName) {
			continue
		}
		idx, cspName := idx, cspName
		var data []byte
		err := op.Do(ctx, transfer.Attempt{
			CSP:  cspName,
			Kind: opDownload,
			Run: func(actx context.Context) (int64, error) {
				store, ok := c.store(cspName)
				if !ok {
					return 0, errProviderVanished(cspName)
				}
				d, err := store.Download(actx, shareObj(idx))
				if err == nil {
					data = d
				}
				return int64(len(d)), err
			},
			Done: func(aerr error, bytes int64, elapsed time.Duration) {
				c.events.emit(Event{Type: EvShareGet, File: file, ChunkID: ref.ID, Index: idx, CSP: cspName, Bytes: bytes, Duration: elapsed, Err: aerr})
			},
		})
		if err != nil {
			continue
		}
		all = append(all, erasure.Share{Index: idx, Data: data})
	}
	// The chunk ID recognises the right decoding, so the search may go past
	// the unique-decoding bound: any clean t-subset recovers the chunk.
	data, corrupt, err := coder.DecodeVerified(all, erasure.MaxN, func(d []byte) bool {
		return verifyChunk(ref, d) == nil
	})
	if err != nil {
		return nil, fmt.Errorf("%w: chunk %s uncorrectable: %v", ErrDamaged, ref.ID[:8], err)
	}
	// Self-heal: overwrite the corrupt share objects with correct bytes.
	// Deliberately a plain Upload even for CAS objects: PutRef would see
	// the (corrupt) object exists and skip the payload, while an overwrite
	// replaces the bytes and leaves the provider's reference tokens — which
	// are independent of object content — untouched.
	if len(corrupt) > 0 {
		c.logf("corrected corrupt shares", "chunk", ref.ID[:8], "indices", fmt.Sprint(corrupt))
		if good, err := coder.Encode(data, ref.T, ref.N); err == nil {
			defer erasure.ReleaseShares(good)
			for _, idx := range corrupt {
				cspName, ok := locations[idx]
				if !ok {
					continue
				}
				idx, cspName := idx, cspName
				_ = op.Do(ctx, transfer.Attempt{
					CSP:  cspName,
					Kind: opUpload,
					Run: func(actx context.Context) (int64, error) {
						store, ok := c.store(cspName)
						if !ok {
							return 0, errProviderVanished(cspName)
						}
						return good[idx].Size(), store.Upload(actx, shareObj(idx), good[idx].Data)
					},
				})
			}
		}
	}
	return data, nil
}

// verifyChunk checks decoded chunk bytes against the record's chunk ID and
// size. Both are committed to by a v2 file ID, so a chunk that passes is
// exactly the bytes the record names.
func verifyChunk(ref metadata.ChunkRef, data []byte) error {
	if int64(len(data)) != ref.Size {
		return fmt.Errorf("%w: chunk %.8s decodes to %d bytes, expected %d", ErrDamaged, ref.ID, len(data), ref.Size)
	}
	if got := metadata.HashData(data); got != ref.ID {
		return fmt.Errorf("%w: chunk decodes to %.8s, expected %.8s", ErrDamaged, got, ref.ID)
	}
	return nil
}

// readable reports whether a provider may serve share downloads: it must
// exist and not be failed; removed providers remain readable until their
// shares migrate away.
func (c *Client) readable(name string) bool {
	c.mu.Lock()
	_, ok := c.stores[name]
	c.mu.Unlock()
	return ok && !c.est.Down(name)
}
