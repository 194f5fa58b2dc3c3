// Command perfbench is the repository's benchmark. It drives the public
// core.Client API through one seeded workload, checks every byte read
// back, and prints one JSON object as its last line of output: the
// end-to-end metrics, or with -trace 1 the per-layer metrics of a traced
// run. See README.md.
//
//	perfbench --workload bulk|smallfiles|wan --seed N --seconds S --trace 0|1
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wname := fs.String("workload", "", "workload: bulk, smallfiles or wan")
	seed := fs.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Int("seconds", 30, "measured time of the run")
	trace := fs.Int("trace", 0, "1 = traced run, reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*wname)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *wname, *seconds, *trace)
		return 2
	}
	var rec *recorder
	if *trace == 1 {
		rec = newRecorder()
	}
	rounds, err := runRounds(context.Background(), w, *seed, time.Duration(*seconds)*time.Second, rec != nil, rec)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	attempted, errs := errorsOf(rounds)
	var ms []metric
	if rec != nil {
		ms = layerMetrics(rounds, rec)
		path := filepath.Join(".bench_build", "perfbench-traces", fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, *seed))
		if err := rec.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintln(stderr, "spans written to", path)
	} else {
		ms, err = endToEnd(rounds)
		if err != nil {
			errs = append(errs, err)
		}
	}
	report(stderr, w, rounds, ms, attempted, errs)
	return emit(stdout, stderr, ms, attempted, errs)
}

// report prints the human-readable summary: every metric with its unit,
// the sample counts and error rate, and the first failures.
func report(out io.Writer, w workload, rounds []result, ms []metric, attempted int, errs []error) {
	bw := bufio.NewWriter(out)
	defer bw.Flush()
	counts := map[string]int{}
	traced, partial := 0, 0
	for _, r := range rounds {
		partial += r.partialSyncs
		if r.traced {
			traced++
		}
		for _, o := range r.ops {
			counts[o.kind]++
		}
	}
	fmt.Fprintf(bw, "workload %s: %d rounds (%d traced)\n", w.name, len(rounds), traced)
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(bw, "  samples %-8s %d\n", k, counts[k])
	}
	for _, m := range ms {
		fmt.Fprintf(bw, "  %-34s %14.4f %s\n", m.name, m.value, m.unit)
	}
	rate := 0.0
	if attempted > 0 {
		rate = float64(len(errs)) / float64(attempted)
	}
	fmt.Fprintf(bw, "  %-34s %14.4f (%d of %d ops)\n", "error_rate", rate, len(errs), attempted)
	fmt.Fprintf(bw, "  %-34s %14d (of %d syncs)\n", "syncs with a partial view", partial, counts["sync"])
	for i, err := range errs {
		if i == 10 {
			fmt.Fprintf(bw, "  ... %d more failures\n", len(errs)-i)
			break
		}
		fmt.Fprintln(bw, "  FAIL:", err)
	}
}

// emit prints the result line and returns the exit code: 0 only when
// every operation succeeded and every output matched.
func emit(stdout, stderr io.Writer, ms []metric, attempted int, errs []error) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(errs) == 0, Attempted: max(attempted, 1), Failed: len(errs), Metrics: map[string]value{}}
	for _, m := range ms {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if len(errs) > 0 {
		return 1
	}
	return 0
}

// endToEnd computes the metrics a user of the client sees, over every
// round of the run.
func endToEnd(rounds []result) ([]metric, error) {
	var setups []float64
	lat := map[string][]float64{}
	var putB, getB, stored, user int64
	var putT, getT, phase time.Duration
	ops := 0
	for _, r := range rounds {
		setups = append(setups, r.setup.Seconds())
		phase += r.phase
		stored += r.stored
		user += r.userPut
		for _, o := range r.ops {
			lat[o.kind] = append(lat[o.kind], float64(o.dur)/1e6)
			ops++
			switch o.kind {
			case "put":
				putB += o.bytes
				putT += o.dur
			case "get":
				getB += o.bytes
				getT += o.dur
			}
		}
	}
	for _, k := range []string{"put", "get", "stat", "sync"} {
		if len(lat[k]) == 0 {
			return nil, fmt.Errorf("%w: no %s operations", errNoSamples, k)
		}
	}
	return []metric{
		{"setup_s", "s", median(setups)},
		{"put_MBps", "MB/s", float64(putB) / 1e6 / putT.Seconds()},
		{"get_MBps", "MB/s", float64(getB) / 1e6 / getT.Seconds()},
		{"put_p50_ms", "ms", median(lat["put"])},
		{"put_p90_ms", "ms", quantile(lat["put"], 0.9)},
		{"get_p50_ms", "ms", median(lat["get"])},
		{"get_p90_ms", "ms", quantile(lat["get"], 0.9)},
		{"stat_p50_ms", "ms", median(lat["stat"])},
		{"sync_p50_ms", "ms", median(lat["sync"])},
		{"ops_per_s", "1/s", float64(ops) / phase.Seconds()},
		{"stored_bytes_per_user_byte", "B/B", float64(stored) / float64(user)},
		{"peak_rss_MB", "MB", peakRSS()},
	}, nil
}

// median returns the middle value of xs (mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSS returns the process's peak resident set in MB.
func peakRSS() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}
