package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
)

// mix hashes a seed and labels into one 64-bit key (splitmix64 steps), so
// every stream of choices and every file version has its own generator.
func mix(vals ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range vals {
		h ^= v
		h += 0x9E3779B97F4A7C15
		h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
		h = (h ^ (h >> 27)) * 0x94D049BB133111EB
		h ^= h >> 31
	}
	return h
}

// newRand returns a generator keyed by the seed and labels.
func newRand(vals ...uint64) *rand.Rand {
	k := mix(vals...)
	return rand.New(rand.NewPCG(k, mix(k, 1)))
}

// logSize maps x in [0, 1) to an integer in [lo, hi] with a uniform
// logarithm, so a size range spanning a decade has as many small files as
// large ones.
func logSize(x float64, lo, hi int) int {
	v := math.Exp(math.Log(float64(lo)) + x*(math.Log(float64(hi))-math.Log(float64(lo))))
	return min(hi, max(lo, int(v)))
}

// logUniform draws a logSize at random.
func logUniform(r *rand.Rand, lo, hi int) int { return logSize(r.Float64(), lo, hi) }

// spread returns point k of a low-discrepancy sequence in [0, 1) whose
// offset is keyed: the golden-ratio additive recurrence. Sizes drawn from
// it cover their range evenly in every round, so two seeds give the same
// size distribution and differ only in which file gets which size.
func spread(key uint64, k int) float64 {
	u0 := float64(mix(key)>>11) / (1 << 53)
	_, frac := math.Modf(u0 + float64(k)*0.6180339887498949)
	return frac
}

// mixEntry is one operation kind of a plan and how often it occurs.
type mixEntry struct {
	kind string
	n    int
}

// plan returns a shuffled operation sequence holding each kind exactly
// its count of times, so every round of a workload has the same mix.
func plan(r *rand.Rand, entries []mixEntry) []string {
	var out []string
	for _, m := range entries {
		for i := 0; i < m.n; i++ {
			out = append(out, m.kind)
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// headerLen is the size of the self-describing prefix of every generated
// file: file number and generation, so a reader that does not know which
// version it received can still regenerate the expected bytes.
const headerLen = 8

// fill writes the content of (file, gen) under round key into dst: the
// header, then bytes drawn from a generator keyed by all three.
func fill(dst []byte, key uint64, file, gen int) {
	var hdr [headerLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(file))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(gen))
	n := copy(dst, hdr[:])
	fillRandom(dst[n:], mix(key, uint64(file), uint64(gen)))
}

// fillRandom fills dst with bytes drawn from a generator keyed by k.
func fillRandom(dst []byte, k uint64) {
	src := rand.NewPCG(k, 7)
	var word [8]byte
	for i := 0; i < len(dst); i += 8 {
		binary.LittleEndian.PutUint64(word[:], src.Uint64())
		copy(dst[i:], word[:])
	}
}

// generate returns the content of (file, gen) of size n, reusing buf.
func generate(buf []byte, key uint64, file, gen, n int) []byte {
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	fill(buf, key, file, gen)
	return buf
}

// parseHeader returns the (file, gen) a generated file names.
func parseHeader(data []byte) (file, gen int, ok bool) {
	if len(data) < headerLen {
		return 0, 0, false
	}
	return int(binary.LittleEndian.Uint32(data[0:])), int(binary.LittleEndian.Uint32(data[4:])), true
}

var errMismatch = errors.New("perfbench: output mismatch")

// checkBytes compares got with want and names the first difference.
func checkBytes(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	if len(got) != len(want) {
		return fmt.Errorf("%w: %s: %d bytes, want %d", errMismatch, what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%w: %s: first difference at byte %d", errMismatch, what, i)
		}
	}
	return nil
}

// cycle returns count targets in [0, n) made of consecutive seeded
// permutations, so every target is used equally often, give or take one.
func cycle(r *rand.Rand, n, count int) []int {
	var out []int
	for len(out) < count {
		out = append(out, r.Perm(n)...)
	}
	return out[:count]
}
