package main

import (
	"strings"
	"time"

	"repro/internal/obs"
)

// layerMetrics computes the per-layer metrics of a traced run from its
// spans, the observer counters of its traced rounds, and the op times of
// its untraced rounds (for the tracing overhead).
func layerMetrics(rounds []result, rec *recorder) []metric {
	opBytes := map[int64]int64{}
	var userPut, useful int64
	cnt := map[string]float64{}
	var inflightPeak float64
	partial := 0
	durs := map[bool]map[string][]float64{false: {}, true: {}}
	for _, r := range rounds {
		for _, o := range r.ops {
			durs[r.traced][o.kind] = append(durs[r.traced][o.kind], float64(o.dur))
		}
		if !r.traced {
			continue
		}
		userPut += r.userPut
		partial += r.partialSyncs
		for _, o := range r.ops {
			opBytes[o.id] = o.bytes
		}
		for _, n := range r.useful {
			useful += n
		}
		for k, v := range r.counters {
			cnt[k] += v
		}
		inflightPeak = max(inflightPeak, r.counters[obs.MetricTransferInFlightPeak])
	}

	// Client operations and the provider calls each caused.
	var (
		nOps                                 int
		nKind                                = map[string]int{}
		self, wait                           = map[string]time.Duration{}, map[string]time.Duration{}
		lists, listed, metaUp, metaDown      int
		uploads, downloads, cspErrors        int
		upBytes, downBytes, putUser, getUser int64
		shareDown, slowShareDown             int
		shareDownBytes                       int64
		svcN                                 = map[string]int{}
		svcT                                 = map[string]time.Duration{}
	)
	for _, b := range rec.breakdown() {
		kind := b.op.Name
		nOps++
		nKind[kind]++
		self[kind] += b.self
		wait[kind] += b.wait
		switch kind {
		case "put":
			putUser += opBytes[b.op.ID]
		case "get":
			getUser += opBytes[b.op.ID]
		}
		for _, c := range b.calls {
			svcN[c.Name]++
			svcT[c.Name] += c.dur()
			if c.Err != "" {
				cspErrors++
			}
			switch c.Name {
			case "list":
				lists++
				listed += c.Objects
			case "upload":
				if kind == "put" {
					uploads++
					metaUp += c.Meta
					upBytes += c.Bytes
				}
			case "download", "batch":
				metaDown += c.Meta
				if kind != "get" {
					break
				}
				downloads++
				downBytes += c.Bytes
				if c.Name == "download" && c.Meta == 0 && c.Err == "" {
					shareDown++
					shareDownBytes += c.Bytes
					if strings.HasPrefix(c.CSP, "slow") {
						slowShareDown++
					}
				}
			}
		}
	}

	// Replays of the chunker, hashing, codec and record codec.
	type work struct {
		bytes, objects int64
		n              int
		t              time.Duration
	}
	rep := map[string]*work{}
	rec.mu.Lock()
	for _, sp := range rec.spans {
		if sp.Layer == "core" || sp.Layer == "csp" {
			continue
		}
		w := rep[sp.Name]
		if w == nil {
			w = &work{}
			rep[sp.Name] = w
		}
		w.bytes += sp.Bytes
		w.objects += int64(sp.Objects)
		w.n++
		w.t += sp.dur()
	}
	rec.mu.Unlock()
	mbps := func(name string) float64 {
		w := rep[name]
		if w == nil {
			return 0
		}
		return div(float64(w.bytes)/1e6, w.t.Seconds())
	}
	perUs := func(name string) float64 {
		w := rep[name]
		if w == nil {
			return 0
		}
		return div(float64(w.t)/1e3, float64(w.n))
	}
	meanMs := func(d map[string]time.Duration, kind string) float64 {
		return div(float64(d[kind])/1e6, float64(nKind[kind]))
	}
	svcMs := func(name string) float64 { return div(float64(svcT[name])/1e6, float64(svcN[name])) }
	chunkKiB := 0.0
	if w := rep["split"]; w != nil {
		chunkKiB = div(float64(w.bytes)/1024, float64(w.objects))
	}

	return []metric{
		{"core.self_ms.put", "ms", meanMs(self, "put")},
		{"core.self_ms.get", "ms", meanMs(self, "get")},
		{"core.self_ms.sync", "ms", meanMs(self, "sync")},
		{"core.sync_partial_frac", "ratio", div(float64(partial), float64(nKind["sync"]))},
		{"core.pipeline_stalls_per_op", "count", div(cnt[obs.MetricPipelineStalls], float64(nKind["put"]+nKind["get"]))},
		{"csp.wait_ms.put", "ms", meanMs(wait, "put")},
		{"csp.wait_ms.get", "ms", meanMs(wait, "get")},
		{"csp.calls.list_per_op", "count", div(float64(lists), float64(nOps))},
		{"csp.listed_objects_per_op", "count", div(float64(listed), float64(nOps))},
		{"csp.meta_uploads_per_put", "count", div(float64(metaUp), float64(nKind["put"]))},
		{"csp.meta_downloads_per_op", "count", div(float64(metaDown), float64(nOps))},
		{"csp.calls.upload_per_put", "count", div(float64(uploads), float64(nKind["put"]))},
		{"csp.calls.download_per_get", "count", div(float64(downloads), float64(nKind["get"]))},
		{"csp.up_bytes_per_user_byte", "B/B", div(float64(upBytes), float64(putUser))},
		{"csp.down_bytes_per_user_byte", "B/B", div(float64(downBytes), float64(getUser))},
		{"csp.service_ms.list", "ms", svcMs("list")},
		{"csp.service_ms.upload", "ms", svcMs("upload")},
		{"csp.service_ms.download", "ms", svcMs("download")},
		{"csp.service_ms.batch", "ms", svcMs("batch")},
		{"csp.errors", "count", float64(cspErrors)},
		{"selector.slow_download_frac", "ratio", div(float64(slowShareDown), float64(shareDown))},
		{"transfer.retries", "count", cnt[obs.MetricTransferRetries]},
		{"transfer.hedges", "count", cnt[obs.MetricTransferHedges+".launched"]},
		{"transfer.hedge_wins", "count", cnt[obs.MetricHedgeWins]},
		{"transfer.hedge_suppressed", "count", cnt[obs.MetricHedgeSuppressed]},
		{"transfer.inflight_peak", "count", inflightPeak},
		{"transfer.useful_download_frac", "ratio", div(float64(useful), float64(shareDownBytes))},
		{"chunker.MBps", "MB/s", mbps("split")},
		{"chunker.mean_chunk_KiB", "KiB", chunkKiB},
		{"metadata.hash_MBps", "MB/s", mbps("hash")},
		{"metadata.record_encode_us", "us", perUs("record.encode")},
		{"metadata.record_decode_us", "us", perUs("record.decode")},
		{"erasure.encode_MBps", "MB/s", mbps("encode")},
		{"erasure.decode_MBps", "MB/s", mbps("decode")},
		{"erasure.encode_bytes_per_user_byte", "B/B", div(cnt[obs.MetricCodecEncodeBytes], float64(userPut))},
		{"obs.tracing_overhead_frac", "ratio", overhead(durs[false], durs[true])},
	}
}

// overhead compares traced with untraced median op times, each op kind
// weighted by its untraced count.
func overhead(untraced, traced map[string][]float64) float64 {
	var u, t float64
	for kind, xs := range untraced {
		if len(traced[kind]) == 0 {
			continue
		}
		w := float64(len(xs))
		u += w * median(xs)
		t += w * median(traced[kind])
	}
	return div(t, u) - 1
}

// div is a/b, or 0 when b is 0 (a layer the workload does not reach).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
