package erasure

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

func TestDecodeCorrectingCleanShares(t *testing.T) {
	t.Parallel()
	c := NewCoder("k")
	data := bytes.Repeat([]byte("clean"), 100)
	shares := mustEncode(t, c, data, 2, 4)
	got, corrupt, err := c.DecodeCorrecting(shares, 4)
	if err != nil || len(corrupt) != 0 || !bytes.Equal(got, data) {
		t.Fatalf("clean correcting decode: corrupt=%v err=%v", corrupt, err)
	}
}

func TestDecodeCorrectingOneBadShare(t *testing.T) {
	t.Parallel()
	c := NewCoder("k")
	data := bytes.Repeat([]byte{9, 8, 7, 6}, 64)
	shares := mustEncode(t, c, data, 2, 4)
	shares[2].Data[shareHeaderLen+5] ^= 0xA5 // flip a payload byte

	got, corrupt, err := c.DecodeCorrecting(shares, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("corrected data wrong")
	}
	if len(corrupt) != 1 || corrupt[0] != 2 {
		t.Fatalf("corrupt = %v, want [2]", corrupt)
	}
}

func TestDecodeCorrectingTwoBadOfSix(t *testing.T) {
	t.Parallel()
	// e < (k - t + 1)/2: at t=2, six shares tolerate two corruptions.
	c := NewCoder("k")
	data := bytes.Repeat([]byte("payload!"), 50)
	shares := mustEncode(t, c, data, 2, 6)
	shares[0].Data[shareHeaderLen] ^= 0xFF
	shares[4].Data[shareHeaderLen+1] ^= 0x0F

	got, corrupt, err := c.DecodeCorrecting(shares, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("corrected data wrong")
	}
	if len(corrupt) != 2 {
		t.Fatalf("corrupt = %v, want 2 entries", corrupt)
	}
}

func TestDecodeCorrectingTooManyBad(t *testing.T) {
	t.Parallel()
	// 3 shares, t=2, one corrupt: majority is 2 of 3 — correctable.
	// Corrupt two of three: no majority, must refuse rather than guess.
	c := NewCoder("k")
	data := bytes.Repeat([]byte("x"), 64)
	shares := mustEncode(t, c, data, 2, 3)
	shares[0].Data[shareHeaderLen] ^= 1
	shares[1].Data[shareHeaderLen] ^= 2
	if _, _, err := c.DecodeCorrecting(shares, 3); !errors.Is(err, ErrCorruptShare) {
		t.Fatalf("2-of-3 corrupt err = %v, want ErrCorruptShare", err)
	}
}

func TestDecodeCorrectingNoSurplus(t *testing.T) {
	t.Parallel()
	// Exactly t shares: corruption is undetectable and uncorrectable; the
	// plain Decode path succeeds silently (no surplus to check against),
	// so DecodeCorrecting also returns, but content hashing upstream
	// (chunk IDs) catches it. With t shares and one corrupted, plain
	// decode can't even notice — this documents the boundary.
	c := NewCoder("k")
	data := bytes.Repeat([]byte("y"), 64)
	shares := mustEncode(t, c, data, 2, 3)
	subset := shares[:2]
	subset[0].Data[shareHeaderLen] ^= 1
	got, corrupt, err := c.DecodeCorrecting(subset, 3)
	if err != nil {
		t.Fatalf("t-shares decode err = %v", err)
	}
	if len(corrupt) != 0 {
		t.Fatalf("corrupt = %v", corrupt)
	}
	if bytes.Equal(got, data) {
		t.Fatal("corrupted t-share decode cannot produce the original")
	}
}

func TestDecodeCorrectingRandomized(t *testing.T) {
	t.Parallel()
	c := NewCoder("rand")
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		tt := 2 + rng.Intn(2)     // 2 or 3
		n := tt + 2 + rng.Intn(2) // enough surplus for one corruption
		data := make([]byte, 128+rng.Intn(512))
		rng.Read(data)
		shares, err := c.Encode(data, tt, n)
		if err != nil {
			t.Fatal(err)
		}
		bad := rng.Intn(n)
		shares[bad].Data[shareHeaderLen+rng.Intn(len(data)/tt)] ^= byte(1 + rng.Intn(255))
		got, corrupt, err := c.DecodeCorrecting(shares, n)
		if err != nil {
			t.Fatalf("trial %d (t=%d n=%d bad=%d): %v", trial, tt, n, bad, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("trial %d: wrong data", trial)
		}
		if len(corrupt) != 1 || corrupt[0] != bad {
			t.Fatalf("trial %d: corrupt=%v want [%d]", trial, corrupt, bad)
		}
	}
}

func BenchmarkDecodeCorrecting(b *testing.B) {
	c := NewCoder("bench")
	data := make([]byte, 1<<20)
	shares, err := c.Encode(data, 2, 4)
	if err != nil {
		b.Fatal(err)
	}
	shares[1].Data[shareHeaderLen] ^= 0xFF
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.DecodeCorrecting(shares, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDecodeVerifiedPastUniqueBound(t *testing.T) {
	t.Parallel()
	// (2,4) with two corrupt shares: agreement alone cannot pick the
	// codeword, so DecodeCorrecting refuses, but a caller that recognises
	// the data recovers it from the clean pair and learns which are bad.
	c := NewCoder("k")
	data := bytes.Repeat([]byte("two bad of four"), 40)
	shares := mustEncode(t, c, data, 2, 4)
	shares[0].Data[shareHeaderLen+3] ^= 0x11
	shares[3].Data[shareHeaderLen+7] ^= 0x22
	if _, _, err := c.DecodeCorrecting(shares, 4); !errors.Is(err, ErrCorruptShare) {
		t.Fatalf("DecodeCorrecting err = %v, want ErrCorruptShare", err)
	}
	got, corrupt, err := c.DecodeVerified(shares, 4, func(d []byte) bool { return bytes.Equal(d, data) })
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("DecodeVerified: err = %v, data ok = %v", err, bytes.Equal(got, data))
	}
	if len(corrupt) != 2 || corrupt[0] != 0 || corrupt[1] != 3 {
		t.Fatalf("corrupt = %v, want [0 3]", corrupt)
	}
}

func TestDecodeVerifiedNeverReturnsRejectedData(t *testing.T) {
	t.Parallel()
	c := NewCoder("k")
	data := bytes.Repeat([]byte("z"), 96)
	// Clean shares whose decoding the check rejects: an error, not data.
	shares := mustEncode(t, c, data, 2, 4)
	if _, _, err := c.DecodeVerified(shares, 4, func([]byte) bool { return false }); !errors.Is(err, ErrCorruptShare) {
		t.Fatalf("rejecting check: err = %v, want ErrCorruptShare", err)
	}
	// Two of three corrupt: the only clean share is below t.
	shares = mustEncode(t, c, data, 2, 3)
	shares[0].Data[shareHeaderLen] ^= 1
	shares[1].Data[shareHeaderLen] ^= 2
	if _, _, err := c.DecodeVerified(shares, 3, func(d []byte) bool { return bytes.Equal(d, data) }); !errors.Is(err, ErrCorruptShare) {
		t.Fatalf("2-of-3 corrupt: err = %v, want ErrCorruptShare", err)
	}
}
