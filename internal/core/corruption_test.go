package core

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/csp"
)

// corruptOneShare flips a byte in one stored chunk-share object at the
// given provider and returns the object name, or "" if none found.
func corruptOneShare(t *testing.T, b *cloudsim.Backend) string {
	t.Helper()
	s := cloudsim.NewSimStore(b)
	if err := s.Authenticate(context.Background(), csp.Credentials{Token: "t"}); err != nil {
		t.Fatal(err)
	}
	infos, err := s.List(bg, SharePrefix)
	if err != nil || len(infos) == 0 {
		return ""
	}
	corruptObject(t, b, infos[0].Name)
	return infos[0].Name
}

// corruptObject flips a payload byte of the named share object.
func corruptObject(t *testing.T, b *cloudsim.Backend, name string) {
	t.Helper()
	s := cloudsim.NewSimStore(b)
	if err := s.Authenticate(context.Background(), csp.Credentials{Token: "t"}); err != nil {
		t.Fatal(err)
	}
	data, err := s.Download(bg, name)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x5A // payload byte (header is at the front)
	if err := s.Upload(bg, name, data); err != nil {
		t.Fatal(err)
	}
}

func TestDownloadCorrectsCorruptShare(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	// (2,4): every chunk has two surplus shares, enough to correct one
	// corruption (e < (k-t+1)/2 with k=4, t=2).
	c := env.client("alice", func(cfg *Config) { cfg.N = 4 })
	data := randData(70, 5_000)
	if err := c.Put(bg, "doc", data); err != nil {
		t.Fatal(err)
	}

	// Corrupt one share object in place at some provider.
	var corruptedAt string
	for name, b := range env.backends {
		if obj := corruptOneShare(t, b); obj != "" {
			corruptedAt = name
			break
		}
	}
	if corruptedAt == "" {
		t.Fatal("no share found to corrupt")
	}

	got, _, err := c.Get(bg, "doc")
	if err != nil {
		t.Fatalf("download with corrupt share: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("corrected download returned wrong bytes")
	}
}

func TestDownloadCorrectsTwoCorruptSharesOfAChunk(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	// (2,4) with two of one chunk's shares corrupt is past the unique-
	// decoding bound, but the clean pair still decodes to bytes matching
	// the chunk ID, and the read heals both bad shares.
	c := env.client("alice", func(cfg *Config) { cfg.N = 4 })
	data := randData(73, 200) // single chunk
	if err := c.Put(bg, "doc", data); err != nil {
		t.Fatal(err)
	}
	// Corrupt the two shares a read actually fetches (the selector keeps
	// its pick), so the plain decode fails and correction must run.
	var mu sync.Mutex
	fetched := make(map[int]string)
	c.Subscribe(func(ev Event) {
		if ev.Type == EvShareGet && ev.Err == nil {
			mu.Lock()
			fetched[ev.Index] = ev.CSP
			mu.Unlock()
		}
	})
	if _, _, err := c.Get(bg, "doc"); err != nil {
		t.Fatal(err)
	}
	ref := headOf(t, c, "doc").Chunks[0]
	mu.Lock()
	if len(fetched) != ref.T {
		mu.Unlock()
		t.Fatalf("read fetched %d shares, want %d", len(fetched), ref.T)
	}
	type victim struct {
		b    *cloudsim.Backend
		name string
		orig []byte
	}
	var victims []victim
	for idx, cspName := range fetched {
		b, name := env.backends[cspName], c.ShareObjectName(ref.ID, idx, ref.T)
		victims = append(victims, victim{b, name, snapshotObject(t, b, name)})
		corruptObject(t, b, name)
	}
	mu.Unlock()

	healed := false
	for i := 0; i < 8 && !healed; i++ {
		got, _, err := c.Get(bg, "doc")
		if err != nil {
			t.Fatalf("download with two corrupt shares of one chunk: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("corrected download returned wrong bytes")
		}
		healed = true
		for _, v := range victims {
			healed = healed && bytes.Equal(v.orig, snapshotObject(t, v.b, v.name))
		}
	}
	if !healed {
		t.Fatal("corrupt shares were not healed in place")
	}
}

func TestDownloadSelfHealsCorruptShare(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	c := env.client("alice", func(cfg *Config) { cfg.N = 4 })
	data := randData(71, 200) // single chunk: one (share, provider) pick to reason about
	if err := c.Put(bg, "doc", data); err != nil {
		t.Fatal(err)
	}

	// The downloader fetches only T of the N shares, and which T is the
	// selector's choice — corrupting an arbitrary share may corrupt one
	// that is never fetched (and so, correctly, never healed). Learn an
	// actually-fetched share from the event stream and corrupt that.
	var mu sync.Mutex
	type fetchedShare struct {
		chunk string
		index int
		csp   string
	}
	var fetched []fetchedShare
	c.Subscribe(func(ev Event) {
		if ev.Type == EvShareGet && ev.Err == nil {
			mu.Lock()
			fetched = append(fetched, fetchedShare{ev.ChunkID, ev.Index, ev.CSP})
			mu.Unlock()
		}
	})
	if _, _, err := c.Get(bg, "doc"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(fetched) == 0 {
		mu.Unlock()
		t.Fatal("no share downloads observed")
	}
	target := fetched[0]
	mu.Unlock()

	victim := env.backends[target.csp]
	objName := c.ShareObjectName(target.chunk, target.index, 2)
	if !victim.MutateObject(objName, func(d []byte) []byte {
		d[len(d)-1] ^= 0x5A
		return d
	}) {
		t.Fatalf("share object %s not found on %s", objName, target.csp)
	}
	before := snapshotObject(t, victim, objName)

	// The provider that served this share has the only observed bandwidth
	// estimate, so the selector keeps picking it; a couple of reads bound
	// the rare case where a skewed first measurement diverts the pick.
	healed := false
	for i := 0; i < 8 && !healed; i++ {
		if _, _, err := c.Get(bg, "doc"); err != nil {
			t.Fatal(err)
		}
		healed = !bytes.Equal(before, snapshotObject(t, victim, objName))
	}
	if !healed {
		t.Fatal("corrupt share was not healed in place")
	}
	// Once healed, a plain decode path works again.
	got, _, err := c.Get(bg, "doc")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("post-heal read: %v", err)
	}
}

func snapshotObject(t *testing.T, b *cloudsim.Backend, name string) []byte {
	t.Helper()
	s := cloudsim.NewSimStore(b)
	if err := s.Authenticate(bg, csp.Credentials{Token: "t"}); err != nil {
		t.Fatal(err)
	}
	data, err := s.Download(bg, name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestDownloadFailsCleanlyWhenUncorrectable(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 3)
	// (2,3): one surplus share — a single corruption is detectable but not
	// correctable (e < (3-2+1)/2 = 1), and decoding from the clean pair
	// still succeeds, so corrupt TWO shares of a chunk: any t-subset now
	// contains a bad share and no unambiguous majority exists.
	c := env.client("alice", nil)
	data := randData(72, 3_000)
	if err := c.Put(bg, "doc", data); err != nil {
		t.Fatal(err)
	}
	// Both corrupt shares must belong to the same chunk: one corruption
	// in each of two chunks is detectable and decodes from the clean pair.
	head := headOf(t, c, "doc")
	ref := head.Chunks[0]
	for _, loc := range head.SharesOf(ref.ID)[:2] {
		corruptObject(t, env.backends[loc.CSP], c.ShareObjectName(ref.ID, loc.Index, ref.T))
	}
	_, _, err := c.Get(bg, "doc")
	if err == nil {
		t.Fatal("uncorrectable corruption returned data")
	}
	if !errors.Is(err, ErrDamaged) {
		t.Fatalf("err = %v, want ErrDamaged", err)
	}
}
