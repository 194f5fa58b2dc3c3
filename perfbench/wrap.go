package main

import (
	"context"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/csp"
)

// timed is the provider-call boundary of the traced run: it forwards every
// csp.Store call to the wrapped store and records one "csp" span per call,
// parented to the client operation named by the call's context. The
// transfer engine derives every attempt's context from the caller's, so a
// hedge or retry stays attributed to the operation that caused it.
type timed struct {
	s   csp.Store
	rec *recorder
}

// wrapStore returns s behind a timed wrapper that implements exactly the
// optional capabilities s does. A wrapper that hid BatchDownloader, say,
// would switch metadata fetches to the per-record fallback and the
// benchmark would measure a different program.
func wrapStore(s csp.Store, rec *recorder) csp.Store {
	t := &timed{s: s, rec: rec}
	var mask int
	su, hasSU := s.(csp.StreamUploader)
	sd, hasSD := s.(csp.StreamDownloader)
	bd, hasBD := s.(csp.BatchDownloader)
	rs, hasRS := s.(csp.RefStore)
	if hasSU {
		mask |= 1
	}
	if hasSD {
		mask |= 2
	}
	if hasBD {
		mask |= 4
	}
	if hasRS {
		mask |= 8
	}
	u, d, b, r := streamUp{t, su}, streamDown{t, sd}, batch{t, bd}, refs{t, rs}
	switch mask {
	case 0:
		return t
	case 1:
		return struct {
			*timed
			streamUp
		}{t, u}
	case 2:
		return struct {
			*timed
			streamDown
		}{t, d}
	case 3:
		return struct {
			*timed
			streamUp
			streamDown
		}{t, u, d}
	case 4:
		return struct {
			*timed
			batch
		}{t, b}
	case 5:
		return struct {
			*timed
			streamUp
			batch
		}{t, u, b}
	case 6:
		return struct {
			*timed
			streamDown
			batch
		}{t, d, b}
	case 7:
		return struct {
			*timed
			streamUp
			streamDown
			batch
		}{t, u, d, b}
	case 8:
		return struct {
			*timed
			refs
		}{t, r}
	case 9:
		return struct {
			*timed
			streamUp
			refs
		}{t, u, r}
	case 10:
		return struct {
			*timed
			streamDown
			refs
		}{t, d, r}
	case 11:
		return struct {
			*timed
			streamUp
			streamDown
			refs
		}{t, u, d, r}
	case 12:
		return struct {
			*timed
			batch
			refs
		}{t, b, r}
	case 13:
		return struct {
			*timed
			streamUp
			batch
			refs
		}{t, u, b, r}
	case 14:
		return struct {
			*timed
			streamDown
			batch
			refs
		}{t, d, b, r}
	default:
		return struct {
			*timed
			streamUp
			streamDown
			batch
			refs
		}{t, u, d, b, r}
	}
}

// callStats is what one provider call moved.
type callStats struct {
	bytes   int64
	objects int // objects listed or fetched in a batch
	meta    int // metadata-share objects moved
}

// call runs fn and records its span.
func (t *timed) call(ctx context.Context, kind string, fn func() (callStats, error)) error {
	start := time.Now()
	st, err := fn()
	end := time.Now()
	sp := span{Parent: opOf(ctx), Layer: "csp", Name: kind, CSP: t.s.Name(),
		Bytes: st.bytes, Objects: st.objects, Meta: st.meta}
	if err != nil {
		sp.Err = err.Error()
	}
	t.rec.add(sp, start, end)
	return err
}

func metaCount(name string) int {
	if _, _, ok := core.ParseMetaShareObjectName(name); ok {
		return 1
	}
	return 0
}

func (t *timed) Name() string { return t.s.Name() }

func (t *timed) Authenticate(ctx context.Context, creds csp.Credentials) error {
	return t.call(ctx, "auth", func() (callStats, error) { return callStats{}, t.s.Authenticate(ctx, creds) })
}

func (t *timed) List(ctx context.Context, prefix string) (out []csp.ObjectInfo, err error) {
	err = t.call(ctx, "list", func() (callStats, error) {
		out, err = t.s.List(ctx, prefix)
		return callStats{objects: len(out)}, err
	})
	return out, err
}

func (t *timed) Upload(ctx context.Context, name string, data []byte) error {
	return t.call(ctx, "upload", func() (callStats, error) {
		return callStats{bytes: int64(len(data)), meta: metaCount(name)}, t.s.Upload(ctx, name, data)
	})
}

func (t *timed) Download(ctx context.Context, name string) (data []byte, err error) {
	err = t.call(ctx, "download", func() (callStats, error) {
		data, err = t.s.Download(ctx, name)
		if err != nil {
			return callStats{}, err
		}
		return callStats{bytes: int64(len(data)), meta: metaCount(name)}, nil
	})
	return data, err
}

func (t *timed) Delete(ctx context.Context, name string) error {
	return t.call(ctx, "delete", func() (callStats, error) { return callStats{}, t.s.Delete(ctx, name) })
}

type streamUp struct {
	t *timed
	s csp.StreamUploader
}

func (w streamUp) UploadFrom(ctx context.Context, name string, r io.Reader) (n int64, err error) {
	err = w.t.call(ctx, "upload", func() (callStats, error) {
		n, err = w.s.UploadFrom(ctx, name, r)
		return callStats{bytes: n, meta: metaCount(name)}, err
	})
	return n, err
}

type streamDown struct {
	t *timed
	s csp.StreamDownloader
}

func (w streamDown) DownloadTo(ctx context.Context, name string, dst io.Writer) (n int64, err error) {
	err = w.t.call(ctx, "download", func() (callStats, error) {
		n, err = w.s.DownloadTo(ctx, name, dst)
		return callStats{bytes: n, meta: metaCount(name)}, err
	})
	return n, err
}

type batch struct {
	t *timed
	s csp.BatchDownloader
}

func (w batch) DownloadBatch(ctx context.Context, names []string) (out map[string][]byte, err error) {
	err = w.t.call(ctx, "batch", func() (callStats, error) {
		out, err = w.s.DownloadBatch(ctx, names)
		var st callStats
		for name, data := range out {
			st.bytes += int64(len(data))
			st.meta += metaCount(name)
		}
		st.objects = len(out)
		return st, err
	})
	return out, err
}

type refs struct {
	t *timed
	s csp.RefStore
}

func (w refs) PutRef(ctx context.Context, name, ref string, data []byte) (created bool, err error) {
	err = w.t.call(ctx, "upload", func() (callStats, error) {
		created, err = w.s.PutRef(ctx, name, ref, data)
		st := callStats{meta: metaCount(name)}
		if created {
			st.bytes = int64(len(data))
		}
		return st, err
	})
	return created, err
}

func (w refs) AddRef(ctx context.Context, name, ref string) error {
	return w.t.call(ctx, "ref", func() (callStats, error) { return callStats{}, w.s.AddRef(ctx, name, ref) })
}

func (w refs) DelRef(ctx context.Context, name, ref string) (removed bool, err error) {
	err = w.t.call(ctx, "ref", func() (callStats, error) {
		removed, err = w.s.DelRef(ctx, name, ref)
		return callStats{}, err
	})
	return removed, err
}

func (w refs) Refs(ctx context.Context, name string) (out []string, err error) {
	err = w.t.call(ctx, "ref", func() (callStats, error) {
		out, err = w.s.Refs(ctx, name)
		return callStats{}, err
	})
	return out, err
}
