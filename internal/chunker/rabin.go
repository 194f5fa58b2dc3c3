// Package chunker implements content-defined chunking: Rabin
// fingerprinting as in paper §5.1 (this file) and FastCDC (fastcdc.go),
// the default.
//
// A rolling polynomial hash over a sliding window is computed at every byte
// offset; when the hash modulo a pre-defined integer M equals a pre-defined
// value K, a chunk boundary is declared. Because boundaries depend only on
// local content, an edit to a file only changes the chunks whose bytes
// changed — the property CYRUS's deduplication relies on.
package chunker

import (
	"fmt"
	"sync"
)

// Polynomial for the Rabin hash: a degree-53 irreducible polynomial over
// GF(2), the one popularized by LBFS. Represented with the implicit leading
// bit excluded from degree tracking.
const Polynomial = uint64(0x3DA3358B4DC173)

// polyDegree is the degree of Polynomial.
const polyDegree = 53

// rabinTables hold the precomputed byte-at-a-time transition tables for a
// given window size: outTable removes the oldest byte, modTable reduces the
// shifted hash.
type rabinTables struct {
	out [256]uint64
	mod [256]uint64
}

var (
	tableMu    sync.Mutex
	tableCache = map[int]*rabinTables{}
)

// polyMod returns x mod Polynomial in GF(2)[x].
func polyMod(x uint64) uint64 {
	for d := deg(x); d >= polyDegree; d = deg(x) {
		x ^= Polynomial << uint(d-polyDegree)
	}
	return x
}

// polyMulMod returns (a * b) mod Polynomial in GF(2)[x].
func polyMulMod(a, b uint64) uint64 {
	var acc uint64
	for b != 0 {
		if b&1 != 0 {
			acc ^= a
		}
		b >>= 1
		a = polyMod(a << 1)
	}
	return acc
}

func deg(x uint64) int {
	d := -1
	for x != 0 {
		x >>= 1
		d++
	}
	return d
}

// tablesFor builds (or fetches) the transition tables for a window size.
func tablesFor(window int) *rabinTables {
	tableMu.Lock()
	defer tableMu.Unlock()
	if t, ok := tableCache[window]; ok {
		return t
	}
	t := &rabinTables{}
	// shift = x^(8*(window-1)) mod P: the weight the oldest byte carries
	// in the window hash, removed just before the hash is advanced by one
	// byte position.
	shift := uint64(1)
	for i := 0; i < window-1; i++ {
		shift = polyMulMod(shift, polyMod(1<<8))
	}
	for b := 0; b < 256; b++ {
		t.out[b] = polyMulMod(uint64(b), shift)
		t.mod[b] = polyMod(uint64(b) << polyDegree)
	}
	tableCache[window] = t
	return t
}

// Algorithm selects the boundary-detection algorithm.
type Algorithm string

const (
	// Rabin is the rolling polynomial hash of paper §5.1. Chunks written
	// before record format v2 were cut by it; select it by name to keep
	// cutting identical boundaries (the paper-testbed experiments do).
	Rabin Algorithm = "rabin"
	// FastCDC is the default: the gear-hash chunker (fastcdc.go), with
	// several times fewer operations per byte than Rabin and different
	// (still deterministic) boundaries. Switching algorithms re-chunks
	// new versions; old chunks remain readable since chunk refs carry
	// their own sizes.
	FastCDC Algorithm = "fastcdc"
)

// Config controls chunk boundary placement.
type Config struct {
	// Algorithm picks the chunker. Empty means FastCDC.
	Algorithm Algorithm
	// Window is the sliding-window size in bytes. Default 48.
	// Rabin only; FastCDC's gear hash has no explicit window.
	Window int
	// AverageSize is the target mean chunk size; boundaries fire when
	// hash mod AverageSize == K, so AverageSize plays the role of the
	// paper's M. Must be a power of two. Default 4 MiB (Dropbox-like,
	// following the paper's testbed setup).
	AverageSize int
	// MinSize suppresses boundaries that would produce chunks smaller than
	// this. Default AverageSize / 4.
	MinSize int
	// MaxSize forces a boundary once a chunk reaches this size.
	// Default AverageSize * 4.
	MaxSize int
	// K is the residue that triggers a boundary, 0 <= K < AverageSize.
	// Default AverageSize - 1 (avoids the all-zeros degenerate residue).
	K uint64
}

// Defaults for Config zero values.
const (
	DefaultWindow      = 48
	DefaultAverageSize = 4 << 20
)

func (c Config) withDefaults() (Config, error) {
	if c.Algorithm == "" {
		c.Algorithm = FastCDC
	}
	if c.Algorithm != Rabin && c.Algorithm != FastCDC {
		return c, fmt.Errorf("chunker: unknown algorithm %q", c.Algorithm)
	}
	if c.Window == 0 {
		c.Window = DefaultWindow
	}
	if c.AverageSize == 0 {
		c.AverageSize = DefaultAverageSize
	}
	if c.AverageSize&(c.AverageSize-1) != 0 {
		return c, fmt.Errorf("chunker: AverageSize %d is not a power of two", c.AverageSize)
	}
	if c.MinSize == 0 {
		c.MinSize = c.AverageSize / 4
	}
	if c.MaxSize == 0 {
		c.MaxSize = c.AverageSize * 4
	}
	if c.K == 0 {
		c.K = uint64(c.AverageSize - 1)
	}
	if c.Algorithm == FastCDC {
		// Window and K are Rabin knobs; FastCDC ignores both. The gear
		// hash needs a few dozen bytes past MinSize for its tested bits to
		// mix, and the normalized masks need log2(avg) +/- 2 bits.
		switch {
		case c.AverageSize < 64:
			return c, fmt.Errorf("chunker: AverageSize %d too small for fastcdc (need >= 64)", c.AverageSize)
		case c.MinSize < 1:
			return c, fmt.Errorf("chunker: MinSize %d too small", c.MinSize)
		case c.MaxSize < c.MinSize:
			return c, fmt.Errorf("chunker: MaxSize %d < MinSize %d", c.MaxSize, c.MinSize)
		}
		return c, nil
	}
	switch {
	case c.Window < 2:
		return c, fmt.Errorf("chunker: window %d too small", c.Window)
	case c.MinSize < c.Window:
		return c, fmt.Errorf("chunker: MinSize %d smaller than window %d", c.MinSize, c.Window)
	case c.MaxSize < c.MinSize:
		return c, fmt.Errorf("chunker: MaxSize %d < MinSize %d", c.MaxSize, c.MinSize)
	case c.K >= uint64(c.AverageSize):
		return c, fmt.Errorf("chunker: K %d out of range for AverageSize %d", c.K, c.AverageSize)
	}
	return c, nil
}

// Chunk is one content-defined piece of a file.
type Chunk struct {
	Offset int64  // byte offset within the file
	Data   []byte // sub-slice of the input buffer (not copied)
}

// Chunker splits byte streams at content-defined boundaries. A Chunker is
// immutable after construction and safe for concurrent use.
type Chunker struct {
	cfg    Config
	tables *rabinTables // Rabin transition tables; nil for FastCDC
	mask   uint64       // Rabin boundary mask

	// FastCDC normalized-chunking masks: the "small" (harder) mask applies
	// before the average point, the "large" (easier) one after it; the Sh
	// variants are the same masks shifted left for the odd-position test of
	// the two-bytes-per-iteration loop.
	maskSmall, maskSmallSh uint64
	maskLarge, maskLargeSh uint64
}

// New returns a Chunker for the given configuration. Zero fields take the
// documented defaults.
func New(cfg Config) (*Chunker, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	ck := &Chunker{cfg: full}
	if full.Algorithm == FastCDC {
		bits := log2int(full.AverageSize)
		ck.maskSmall = spreadMask(bits + 2)
		ck.maskLarge = spreadMask(bits - 2)
		ck.maskSmallSh = ck.maskSmall << 1
		ck.maskLargeSh = ck.maskLarge << 1
		return ck, nil
	}
	ck.tables = tablesFor(full.Window)
	ck.mask = uint64(full.AverageSize - 1)
	return ck, nil
}

// Config reports the effective configuration after defaulting.
func (c *Chunker) Config() Config { return c.cfg }

// Split divides data into content-defined chunks. The returned chunks alias
// the input slice. Every byte of the input is covered exactly once, in
// order. An empty input yields no chunks. The chunk slice is preallocated
// from the expected count; use SplitTo to reuse a caller-owned slice.
func (c *Chunker) Split(data []byte) []Chunk {
	return c.SplitTo(make([]Chunk, 0, len(data)/c.cfg.AverageSize+1), data)
}

// SplitTo appends the chunks of data to dst and returns the extended slice,
// allocating only when dst lacks capacity — the zero-steady-state-alloc
// variant of Split for callers that recycle the chunk slice. It drives the
// same Scanner that streams chunks from an io.Reader (in its zero-copy
// ScanBytes mode), so batch and streaming chunking share one boundary loop.
func (c *Chunker) SplitTo(dst []Chunk, data []byte) []Chunk {
	s := Scanner{c: c, buf: data, end: len(data), eof: true}
	for {
		ch, err := s.Next()
		if err != nil {
			return dst // ScanBytes mode can only fail with io.EOF
		}
		dst = append(dst, ch)
	}
}

// nextBoundary returns the length of the next chunk starting at data[0].
func (c *Chunker) nextBoundary(data []byte) int {
	if len(data) <= c.cfg.MinSize {
		return len(data)
	}
	maxLen := len(data)
	if maxLen > c.cfg.MaxSize {
		maxLen = c.cfg.MaxSize
	}

	// Warm the window over the bytes just before the earliest legal
	// boundary so the hash at position MinSize covers a full window.
	var h uint64
	warmStart := c.cfg.MinSize - c.cfg.Window
	for i := warmStart; i < c.cfg.MinSize; i++ {
		h = c.roll(h, 0, data[i]) // window fills; nothing to age out yet
	}
	for i := c.cfg.MinSize; i < maxLen; i++ {
		h = c.roll(h, data[i-c.cfg.Window], data[i])
		if h&c.mask == c.cfg.K&c.mask {
			return i + 1
		}
	}
	return maxLen
}

// roll advances the hash: ages out `old`, appends `in`. The hash is kept
// reduced mod Polynomial (degree < 53) throughout.
func (c *Chunker) roll(h uint64, old, in byte) uint64 {
	h ^= c.tables.out[old]
	top := byte(h >> (polyDegree - 8))
	h = ((h << 8) | uint64(in)) & ((1 << polyDegree) - 1)
	return h ^ c.tables.mod[top]
}
