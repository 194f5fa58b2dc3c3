package main

import (
	"context"
	"io"
	"testing"

	"repro/internal/csp"
)

// Fake capabilities: each part implements one optional interface.
type (
	fakeBase struct{}
	fakeSU   struct{}
	fakeSD   struct{}
	fakeBD   struct{}
	fakeRS   struct{}
)

func (fakeBase) Name() string                                               { return "fake" }
func (fakeBase) Authenticate(context.Context, csp.Credentials) error        { return nil }
func (fakeBase) List(context.Context, string) ([]csp.ObjectInfo, error)     { return nil, nil }
func (fakeBase) Upload(context.Context, string, []byte) error               { return nil }
func (fakeBase) Download(context.Context, string) ([]byte, error)           { return nil, nil }
func (fakeBase) Delete(context.Context, string) error                       { return nil }
func (fakeSU) UploadFrom(context.Context, string, io.Reader) (int64, error) { return 0, nil }
func (fakeSD) DownloadTo(context.Context, string, io.Writer) (int64, error) { return 0, nil }
func (fakeBD) DownloadBatch(context.Context, []string) (map[string][]byte, error) {
	return nil, nil
}
func (fakeRS) PutRef(context.Context, string, string, []byte) (bool, error) { return false, nil }
func (fakeRS) AddRef(context.Context, string, string) error                 { return nil }
func (fakeRS) DelRef(context.Context, string, string) (bool, error)         { return false, nil }
func (fakeRS) Refs(context.Context, string) ([]string, error)               { return nil, nil }

// capabilities reports which optional interfaces s implements.
func capabilities(s csp.Store) [4]bool {
	_, su := s.(csp.StreamUploader)
	_, sd := s.(csp.StreamDownloader)
	_, bd := s.(csp.BatchDownloader)
	_, rs := s.(csp.RefStore)
	return [4]bool{su, sd, bd, rs}
}

// TestWrapPreservesCapabilities pins that the timing wrapper implements
// exactly the optional interfaces of the store it wraps, for every
// combination. Hiding BatchDownloader would switch metadata fetches to
// the per-record fallback, so the traced run would measure a different
// program.
func TestWrapPreservesCapabilities(t *testing.T) {
	stores := []csp.Store{
		fakeBase{},
		struct {
			fakeBase
			fakeSU
		}{},
		struct {
			fakeBase
			fakeSD
		}{},
		struct {
			fakeBase
			fakeSU
			fakeSD
		}{},
		struct {
			fakeBase
			fakeBD
		}{},
		struct {
			fakeBase
			fakeSU
			fakeBD
		}{},
		struct {
			fakeBase
			fakeSD
			fakeBD
		}{},
		struct {
			fakeBase
			fakeSU
			fakeSD
			fakeBD
		}{},
		struct {
			fakeBase
			fakeRS
		}{},
		struct {
			fakeBase
			fakeSU
			fakeRS
		}{},
		struct {
			fakeBase
			fakeSD
			fakeRS
		}{},
		struct {
			fakeBase
			fakeSU
			fakeSD
			fakeRS
		}{},
		struct {
			fakeBase
			fakeBD
			fakeRS
		}{},
		struct {
			fakeBase
			fakeSU
			fakeBD
			fakeRS
		}{},
		struct {
			fakeBase
			fakeSD
			fakeBD
			fakeRS
		}{},
		struct {
			fakeBase
			fakeSU
			fakeSD
			fakeBD
			fakeRS
		}{},
		newMemStore("mem", nil),
	}
	seen := map[[4]bool]bool{}
	for i, s := range stores {
		want := capabilities(s)
		seen[want] = true
		if got := capabilities(wrapStore(s, newRecorder())); got != want {
			t.Errorf("store %d: wrapper capabilities %v, wrapped store %v", i, got, want)
		}
	}
	if len(seen) != 16 {
		t.Fatalf("table covers %d of 16 capability combinations", len(seen))
	}
	if got := capabilities(newMemStore("mem", nil)); got != [4]bool{false, false, true, true} {
		t.Fatalf("memStore capabilities %v, want BatchDownloader and RefStore (as cloudsim.SimStore)", got)
	}
}

// TestWrapAttributesCalls checks that every call through the wrapper is
// recorded under the operation its context names, with what it moved.
func TestWrapAttributesCalls(t *testing.T) {
	rec := newRecorder()
	mem := newMemStore("mem", nil)
	s := wrapStore(mem, rec)
	ctx, id := rec.beginOp(context.Background())
	if err := s.Authenticate(ctx, csp.Credentials{Token: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Upload(ctx, "cyrus-share-a", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.(csp.BatchDownloader).DownloadBatch(ctx, []string{"cyrus-share-a", "missing"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Download(ctx, "missing"); err == nil {
		t.Fatal("download of a missing object succeeded")
	}
	want := []span{
		{Name: "auth"},
		{Name: "upload", Bytes: 5},
		{Name: "batch", Bytes: 5, Objects: 1},
		{Name: "download"},
	}
	if len(rec.spans) != len(want) {
		t.Fatalf("recorded %d spans, want %d", len(rec.spans), len(want))
	}
	for i, sp := range rec.spans {
		w := want[i]
		if sp.Parent != id || sp.Layer != "csp" || sp.CSP != "mem" || sp.Name != w.Name || sp.Bytes != w.Bytes || sp.Objects != w.Objects {
			t.Errorf("span %d = %+v, want %s under op %d", i, sp, w.Name, id)
		}
	}
	if rec.spans[3].Err == "" {
		t.Error("failed download recorded without its error")
	}
}
