package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/csp"
	"repro/internal/netsim"
	"repro/internal/policy"
)

// ClassesConfig parameterizes the storage-class cost/latency frontier
// benchmark (BENCH id "10").
type ClassesConfig struct {
	// Files is the dataset size. Default 24 (equal-size files, so the
	// percentiles compare class encodings, not file sizes).
	Files int
	// FileBytes is the per-file size. Default 256 KiB.
	FileBytes int
	// Passes is how many timed Get passes run over the dataset. Default 2.
	Passes int
	Seed   int64
}

func (c *ClassesConfig) defaults() {
	if c.Files == 0 {
		c.Files = 24
	}
	if c.FileBytes == 0 {
		c.FileBytes = 256 << 10
	}
	if c.Passes == 0 {
		c.Passes = 2
	}
}

// ClassCell is one class-mix measurement.
type ClassCell struct {
	Mix       string `json:"mix"`
	HotFiles  int    `json:"hot_files"`
	ColdFiles int    `json:"cold_files"`
	// StoredBytes is the cost proxy: chunk-share bytes summed across every
	// provider (bytes stored x provider count — what a per-GB price
	// multiplies).
	StoredBytes int64 `json:"stored_bytes"`
	ShareCount  int   `json:"share_objects"`
	// ProviderBytesPerObject is the mean bytes a single provider stores
	// for one object (one share): FileBytes/t for single-chunk files.
	ProviderBytesPerObject float64 `json:"provider_bytes_per_object"`
	GetP50                 float64 `json:"get_p50_seconds"`
	GetP99                 float64 `json:"get_p99_seconds"`
}

// ClassesResult carries the sweep for regression comparison (BENCH_10.json).
type ClassesResult struct {
	Report Report
	Cells  []ClassCell
}

// classesClouds is the 8-provider topology the two classes carve up: four
// fast clouds (the hot class's dedicated subset) and four slow ones that
// only the wide cold code touches.
func classesClouds() []cloudSpec {
	return []cloudSpec{
		{"fast1", 12 * MB, 12 * MB, 2 * time.Millisecond},
		{"fast2", 12 * MB, 12 * MB, 2 * time.Millisecond},
		{"fast3", 10 * MB, 10 * MB, 3 * time.Millisecond},
		{"fast4", 10 * MB, 10 * MB, 3 * time.Millisecond},
		{"slow1", 1.5 * MB, 1.5 * MB, 10 * time.Millisecond},
		{"slow2", 1.4 * MB, 1.4 * MB, 10 * time.Millisecond},
		{"slow3", 1.3 * MB, 1.3 * MB, 12 * time.Millisecond},
		{"slow4", 1.2 * MB, 1.2 * MB, 12 * time.Millisecond},
	}
}

// classesPolicy is the two-class configuration under test: hot at (2,4)
// pinned to the fast clouds, cold at (3,8) across all eight. Equal
// durability target: both tolerate at least two provider failures (hot
// n-t = 2, cold n-t = 5), but the wide cold code cuts the share each
// provider stores from 1/2 to 1/3 of the object.
func classesPolicy(cfg *core.Config) {
	cfg.Classes = []policy.Class{
		{Name: "hot", Tier: policy.TierHot, T: 2, N: 4,
			CSPs: []string{"fast1", "fast2", "fast3", "fast4"}},
		{Name: "cold", Tier: policy.TierCold, T: 3, N: 8},
	}
	cfg.DefaultClass = "hot"
}

// shareBytes sums chunk-share object bytes (and counts the objects) across
// every provider — metadata records excluded.
func (e *simEnv) shareBytes() (int64, int, error) {
	var total int64
	count := 0
	for _, b := range e.backends {
		s := cloudsim.NewSimStore(b)
		if err := s.Authenticate(bg, csp.Credentials{Token: "count"}); err != nil {
			return 0, 0, err
		}
		infos, err := s.List(bg, core.SharePrefix)
		if err != nil {
			return 0, 0, err
		}
		for _, info := range infos {
			total += info.Size
			count++
		}
	}
	return total, count, nil
}

// Classes measures the cost/latency frontier storage classes unlock
// (BENCH id "10"): the same dataset uploaded all-hot, 70/30 mixed, and
// all-cold, with per-cell provider-bytes and Get p50/p99. Hot (2,4) on the
// four fast clouds buys latency with a fat share on expensive providers;
// cold (3,8) across all eight stores a third of the object per provider —
// fewer provider-bytes per object at an even higher failure tolerance —
// and pays for it with wider reads that include the slow clouds.
func Classes(cfg ClassesConfig) (ClassesResult, error) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	type file struct {
		name string
		data []byte
	}
	files := make([]file, cfg.Files)
	for i := range files {
		buf := make([]byte, cfg.FileBytes)
		rng.Read(buf)
		files[i] = file{name: fmt.Sprintf("cls-%03d.bin", i), data: buf}
	}

	mixes := []struct {
		name    string
		hotFrac float64
	}{
		{"all-hot", 1.0},
		{"70-30", 0.7},
		{"all-cold", 0.0},
	}

	res := ClassesResult{}
	for _, mix := range mixes {
		env := newSimEnv(netsim.NodeConfig{}, classesClouds())
		cell := ClassCell{Mix: mix.name}
		var latencies []float64
		var runErr error
		env.net.Run(func() {
			up, err := env.newClient("uploader", 2, 4, noChunking(), classesPolicy)
			if err != nil {
				runErr = err
				return
			}
			for i, f := range files {
				class := "cold"
				// Deterministic spread: file i is hot iff its residue mod 10
				// falls under the hot fraction, so 70/30 interleaves classes
				// instead of splitting the dataset in half.
				if float64(i%10) < mix.hotFrac*10 {
					class = "hot"
				}
				if err := up.PutWith(bg, f.name, f.data, core.PutOptions{Class: class}); err != nil {
					runErr = fmt.Errorf("put %s (%s): %w", f.name, class, err)
					return
				}
				if class == "hot" {
					cell.HotFiles++
				} else {
					cell.ColdFiles++
				}
			}
			dl, err := env.newClient("downloader", 2, 4, noChunking(), classesPolicy)
			if err != nil {
				runErr = err
				return
			}
			if err := dl.Recover(bg); err != nil {
				runErr = err
				return
			}
			// Warm pass teaches the bandwidth estimates; timed passes measure.
			for _, f := range files {
				if _, _, err := dl.Get(bg, f.name); err != nil {
					runErr = fmt.Errorf("warm get %s: %w", f.name, err)
					return
				}
			}
			for p := 0; p < cfg.Passes; p++ {
				for _, f := range files {
					elapsed, err := env.timeOp(func() error {
						_, _, err := dl.Get(bg, f.name)
						return err
					})
					if err != nil {
						runErr = fmt.Errorf("get %s: %w", f.name, err)
						return
					}
					latencies = append(latencies, elapsed)
				}
			}
		})
		if runErr != nil {
			return res, fmt.Errorf("%s: %w", mix.name, runErr)
		}
		stored, shares, err := env.shareBytes()
		if err != nil {
			return res, fmt.Errorf("%s: counting shares: %w", mix.name, err)
		}
		cell.StoredBytes = stored
		cell.ShareCount = shares
		if shares > 0 {
			cell.ProviderBytesPerObject = float64(stored) / float64(shares)
		}
		cell.GetP50 = percentile(latencies, 0.50)
		cell.GetP99 = percentile(latencies, 0.99)
		res.Cells = append(res.Cells, cell)
	}

	rows := make([][]string, 0, len(res.Cells))
	for _, c := range res.Cells {
		rows = append(rows, []string{
			c.Mix, fmt.Sprintf("%d/%d", c.HotFiles, c.ColdFiles),
			fmt.Sprintf("%d", c.StoredBytes), fmt.Sprintf("%d", c.ShareCount),
			fmt.Sprintf("%.0f", c.ProviderBytesPerObject),
			secs(c.GetP50), secs(c.GetP99),
		})
	}
	hot, cold := res.Cells[0], res.Cells[len(res.Cells)-1]
	res.Report = Report{
		ID:      "10",
		Title:   "storage classes: cost/latency frontier across class mixes, hot (2,4) on 4 fast clouds vs cold (3,8) on all 8",
		Columns: []string{"mix", "hot/cold files", "stored B", "shares", "B/CSP/object", "get p50", "get p99"},
		Rows:    rows,
		Notes: []string{
			fmt.Sprintf("%d equal-size files of %d B each, seed %d, %d timed Get passes; cost proxy = share bytes summed across providers", cfg.Files, cfg.FileBytes, cfg.Seed, cfg.Passes),
			fmt.Sprintf("frontier: cold stores %.0f B per provider per object vs hot %.0f (%.0f%%), at get p50 %s vs %s",
				cold.ProviderBytesPerObject, hot.ProviderBytesPerObject,
				100*cold.ProviderBytesPerObject/hot.ProviderBytesPerObject,
				secs(cold.GetP50), secs(hot.GetP50)),
			"equal durability target: hot tolerates n-t=2 provider failures, cold n-t=5; the wide code spreads cheaper shares over more (and slower) providers",
		},
	}
	return res, nil
}
