package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/chunker"
	"repro/internal/metadata"
)

// Record format v2 makes File.ID the chunk-list root, so Get checks it in
// O(#chunks) against chunk IDs gather verifies anyway; v1 records keep the
// whole-file hash. These tests pin that every delivered byte is still
// checked against a digest the record commits to, under both formats.

// cloneMeta deep-copies a record so a test can tamper with it without
// touching the tree's copy.
func cloneMeta(m *metadata.FileMeta) *metadata.FileMeta {
	out := *m
	out.Chunks = append([]metadata.ChunkRef(nil), m.Chunks...)
	out.Shares = append([]metadata.ShareLoc(nil), m.Shares...)
	return &out
}

// retile rewrites offsets and File.Size so a tampered chunk list still
// passes Validate: the tamper must get past structural checks to reach
// the file-ID check.
func retile(m *metadata.FileMeta) {
	var off int64
	for i := range m.Chunks {
		m.Chunks[i].Offset = off
		off += m.Chunks[i].Size
	}
	m.File.Size = off
}

// publishV1 publishes a FormatV1 child of the file's head that names the
// same chunks — the record a client from before format v2 would have
// written for data.
func publishV1(t *testing.T, c *Client, name string, data []byte) *metadata.FileMeta {
	t.Helper()
	head := headOf(t, c, name)
	v1 := cloneMeta(head)
	v1.Format = metadata.FormatV1
	v1.File.ID = metadata.HashData(data)
	v1.File.PrevID = head.VersionID()
	op := c.engine.Begin(bg)
	defer op.Finish()
	if err := c.uploadMeta(op, v1); err != nil {
		t.Fatal(err)
	}
	if err := c.absorb(v1); err != nil {
		t.Fatal(err)
	}
	return v1
}

func TestPutWritesChunkListID(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	c := env.client("alice", nil)
	data := randData(80, 12_000)
	if err := c.Put(bg, "f", data); err != nil {
		t.Fatal(err)
	}
	head := headOf(t, c, "f")
	if head.Format != metadata.FormatV2 {
		t.Fatalf("Put wrote format %d, want %d", head.Format, metadata.FormatV2)
	}
	if len(head.Chunks) < 3 {
		t.Fatalf("want a multi-chunk file, got %d chunks", len(head.Chunks))
	}
	// The root is computed here from the client's own chunking, not read
	// back from the record.
	var refs []metadata.ChunkRef
	for _, ch := range c.chunk.Split(data) {
		refs = append(refs, metadata.ChunkRef{ID: metadata.HashData(ch.Data), Size: int64(len(ch.Data))})
	}
	if want := metadata.ChunkListID(refs); head.File.ID != want {
		t.Fatalf("file ID %s, want chunk-list root %s", head.File.ID, want)
	}
}

func TestGetRejectsTamperedChunkList(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	c := env.client("alice", nil)
	data := randData(82, 12_000)
	if err := c.Put(bg, "doc", data); err != nil {
		t.Fatal(err)
	}
	head := headOf(t, c, "doc")
	if len(head.Chunks) < 3 {
		t.Fatalf("want a multi-chunk file, got %d chunks", len(head.Chunks))
	}
	v1 := cloneMeta(head)
	v1.Format = metadata.FormatV1
	v1.File.ID = metadata.HashData(data)
	// The untampered v1 record reads back through the whole-file check.
	if got, err := c.fetchVersion(bg, v1); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("untampered v1 record: err=%v, match=%v", err, bytes.Equal(got, data))
	}
	tampers := map[string]func(m *metadata.FileMeta){
		"reordered": func(m *metadata.FileMeta) {
			m.Chunks[0], m.Chunks[1] = m.Chunks[1], m.Chunks[0]
		},
		"truncated": func(m *metadata.FileMeta) {
			m.Chunks = m.Chunks[:len(m.Chunks)-1]
		},
		"resized": func(m *metadata.FileMeta) {
			m.Chunks[0].Size--
		},
	}
	for name, tamper := range tampers {
		for format, orig := range map[int]*metadata.FileMeta{metadata.FormatV1: v1, metadata.FormatV2: head} {
			m := cloneMeta(orig)
			tamper(m)
			retile(m)
			if err := m.Validate(); err != nil {
				t.Fatalf("%s v%d: tamper does not reach the file check: %v", name, format, err)
			}
			var w bytes.Buffer
			err := c.fetchTo(bg, m, 0, m.File.Size, &w, true)
			if !errors.Is(err, ErrDamaged) {
				t.Fatalf("%s v%d: tampered record read back: err=%v", name, format, err)
			}
			if format == metadata.FormatV2 {
				// The root check runs before any chunk is fetched, so
				// no byte of the tampered version reaches the caller.
				if !strings.Contains(err.Error(), "chunk list") || w.Len() != 0 {
					t.Fatalf("%s v2: not rejected by the root check up front: %v (%d bytes written)", name, err, w.Len())
				}
				// The root check needs no content, so range reads make it.
				if err := c.fetchTo(bg, m, 0, 1, &w, false); !errors.Is(err, ErrDamaged) || w.Len() != 0 {
					t.Fatalf("%s v2: range read of a tampered record: err=%v", name, err)
				}
			}
		}
	}
}

// TestGetRejectsMisSizedChunk covers a v2 record whose root was taken
// over a wrong chunk size: the root check passes, so the per-chunk size
// check is what keeps a short chunk from being delivered as a whole one.
func TestGetRejectsMisSizedChunk(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	c := env.client("alice", nil)
	if err := c.Put(bg, "doc", randData(86, 12_000)); err != nil {
		t.Fatal(err)
	}
	m := cloneMeta(headOf(t, c, "doc"))
	m.Chunks[0].Size--
	retile(m)
	m.File.ID = metadata.ChunkListID(m.Chunks)
	for _, full := range []bool{true, false} {
		var w bytes.Buffer
		if err := c.fetchTo(bg, m, 0, m.File.Size, &w, full); !errors.Is(err, ErrDamaged) || w.Len() != 0 {
			t.Fatalf("full=%v: mis-sized chunk delivered: err=%v, %d bytes", full, err, w.Len())
		}
	}
}

func TestV1HeadRePutIsNoOp(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	c := env.client("alice", nil)
	data := randData(83, 9_000)
	if err := c.Put(bg, "f", data); err != nil {
		t.Fatal(err)
	}
	v1 := publishV1(t, c, "f", data)
	got, _, err := c.Get(bg, "f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("v1 head read back: err=%v", err)
	}
	// Same content, same chunker: the chunk lists match, so no new
	// version even though the v1 head's ID is a content hash.
	if err := c.Put(bg, "f", data); err != nil {
		t.Fatal(err)
	}
	if vid := mustHeadVersion(t, c, "f"); vid != v1.VersionID() {
		t.Fatalf("re-put of unchanged content over a v1 head published %s", vid)
	}
	// Changed content publishes a v2 child.
	edited := append(append([]byte(nil), data...), 'x')
	if err := c.Put(bg, "f", edited); err != nil {
		t.Fatal(err)
	}
	head := headOf(t, c, "f")
	if head.Format != metadata.FormatV2 || head.File.PrevID != v1.VersionID() {
		t.Fatalf("edit over v1 head: format %d, parent %s", head.Format, head.File.PrevID)
	}

	// A v1 head cut by Rabin (the default before format v2), re-put with
	// the same bytes by a client on the FastCDC default: the chunk lists
	// differ and no content hash is taken, so the re-put publishes a new
	// v2 version rather than short-circuiting. Pinned as documented.
	rabin := env.client("rabin", func(cfg *Config) { cfg.Chunking.Algorithm = chunker.Rabin })
	if err := rabin.Put(bg, "r", data); err != nil {
		t.Fatal(err)
	}
	rv1 := publishV1(t, rabin, "r", data)
	if _, err := c.Sync(bg); err != nil {
		t.Fatal(err)
	}
	if vid := mustHeadVersion(t, c, "r"); vid != rv1.VersionID() {
		t.Fatalf("synced head %s, want the Rabin v1 head %s", vid, rv1.VersionID())
	}
	if err := c.Put(bg, "r", data); err != nil {
		t.Fatal(err)
	}
	head = headOf(t, c, "r")
	if head.Format != metadata.FormatV2 || head.File.PrevID != rv1.VersionID() {
		t.Fatalf("re-put over Rabin v1 head: format %d, parent %s", head.Format, head.File.PrevID)
	}
	if head.File.ID == metadata.ChunkListID(rv1.Chunks) {
		t.Fatal("FastCDC and Rabin cut the test data identically; the case is not exercised")
	}
	if got, _, err := c.Get(bg, "r"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("re-put version read back: err=%v", err)
	}
}

func TestReencodeClassKeepsFormat(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 6)
	c := env.client("alice", classConfig)
	for _, format := range []int{metadata.FormatV2, metadata.FormatV1} {
		name := "docs/v2.bin"
		data := randData(84, 15_000)
		if format == metadata.FormatV1 {
			name, data = "docs/v1.bin", randData(85, 15_000)
		}
		if err := c.Put(bg, name, data); err != nil {
			t.Fatal(err)
		}
		if format == metadata.FormatV1 {
			publishV1(t, c, name, data)
		}
		old := headOf(t, c, name)
		if changed, err := c.ReencodeClass(bg, name, "cold"); err != nil || !changed {
			t.Fatalf("v%d demotion: changed=%v err=%v", format, changed, err)
		}
		head := headOf(t, c, name)
		if head.Format != format || head.File.ID != old.File.ID {
			t.Fatalf("v%d demotion: format %d, ID %s (was %s)", format, head.Format, head.File.ID, old.File.ID)
		}
		if format == metadata.FormatV2 && metadata.ChunkListID(head.Chunks) != head.File.ID {
			t.Fatal("v2 demotion: class and (t, n) leaked into the chunk-list root")
		}
		got, _, err := c.Get(bg, name)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("v%d read back after demotion: err=%v", format, err)
		}
	}
}
