// Command fairbench is fairtcim's end-to-end benchmark. It generates the
// fixed twoblock-20k graph, spawns fairtcimd on it, drives closed-loop
// traffic scripted from the workload seed over loopback, checks every
// answer against an in-process solve, and prints the metrics as one JSON
// line.
//
//	fairbench -daemon <fairtcimd binary> -workdir <scratch dir> \
//	    --workload warm-solve --seed 1 --seconds 10 --trace 0
//
// fairbench/run.sh builds both binaries and runs it. See
// fairbench/README.md for the workloads, request classes and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	if err := mainErr(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fairbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string) error {
	fs := flag.NewFlagSet("fairbench", flag.ContinueOnError)
	bin := fs.String("daemon", "", "fairtcimd binary (required)")
	workdir := fs.String("workdir", "", "directory for per-run scratch files (required)")
	workload := fs.String("workload", "", "warm-solve | cold-reload | update-refresh | fresh-eval")
	seed := fs.Uint64("seed", 1, "workload seed: draws the build keys, estimated seed sets and update batches (the graph is fixed)")
	seconds := fs.Int("seconds", 10, "run length: every phase's request count scales linearly with it")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics (adds the in-process traced replay)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *bin == "" || *workdir == "" {
		return fmt.Errorf("-daemon and -workdir are required")
	}
	if err := validWorkload(*workload); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	out, err := benchmark(defaultParams(), *bin, *workdir, *workload, *seed, *seconds, *trace == 1)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// benchmark performs one run and returns the report line.
func benchmark(p params, bin, workdir, workload string, seed uint64, seconds int, trace bool) ([]byte, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &run{p: p, workload: workload, seconds: seconds, seed: seed, bin: bin, dir: dir}
	if err := r.makeGraph(); err != nil {
		return nil, err
	}
	if err := r.execute(); err != nil {
		return nil, err
	}

	gt := newGate(r.g)
	var rep report
	for _, ph := range r.phases {
		for i := range ph.results {
			res := &ph.results[i]
			rep.Attempted++
			if res.failed() {
				rep.Failed++
			}
			gt.add(res)
		}
	}
	gt.checkUpdates(r.results(phaseUpdate), p.pool)
	r.checkMix(gt)
	gt.verify(runtime.NumCPU()) // the daemon has exited
	rep.Correct = len(gt.failures) == 0
	for i, f := range gt.failures {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "fairbench: ... %d more failures\n", len(gt.failures)-10)
			break
		}
		fmt.Fprintln(os.Stderr, "fairbench: FAIL:", f)
	}

	lat := r.classLatencies()
	logCounts(workload, lat)
	fmt.Fprintf(os.Stderr, "fairbench: set-ups: %.3f s\n", r.setupS)
	for _, name := range phases {
		var secs float64
		for _, ph := range r.phases {
			if ph.name == name {
				secs += ph.elapsed.Seconds()
			}
		}
		fmt.Fprintf(os.Stderr, "fairbench: phase %s: %d requests in %.2fs\n", name, len(r.results(name)), secs)
	}
	if trace {
		layers, err := replayLayers(r, lat)
		if err != nil {
			return nil, err
		}
		for k, v := range r.counterMetrics() {
			layers[k] = v
		}
		// Supported (10 samples beyond) when warm is the primary phase.
		layers["client.warm_p99_ms"] = metric{percentile(lat[classWarm], 0.99), "ms"}
		rep.Metrics = layers
	} else {
		rep.Metrics = r.endToEnd(lat)
	}
	return json.Marshal(rep)
}

// percentile is the nearest-rank q-quantile of sorted values: an observed
// latency with exactly the samples beyond it the tail rule counts
// (stats.Quantile interpolates between samples instead).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// tail is the percentile every class reports beside its p50: the highest
// one every run keeps 10 samples beyond. The warm p99 was the end-to-end
// tail at first; batch latencies put its 11 samples beyond at the mercy of
// GC and neighbours, and its spread over seeds (0.18 and 0.34 in two
// five-seed sets) exceeded any usable bound, so it is a per-layer
// diagnostic now.
const tail = 0.90

// endToEnd computes the metrics a user of the daemon sees.
func (r *run) endToEnd(lat map[string][]float64) map[string]metric {
	m := map[string]metric{"setup_s": {median(r.setupS), "s"}}
	ops, ticks := 0, int64(0)
	var secs float64
	for _, ph := range r.phases {
		ops += len(ph.results)
		ticks += ph.cpuTicks
		secs += ph.elapsed.Seconds()
	}
	m["throughput_rps"] = metric{float64(ops) / secs, "1/s"}
	m["cpu_ms_per_op"] = metric{float64(ticks) * 1000 / clockTicksPerSec / float64(ops), "ms"}
	m["rss_peak_mb"] = metric{r.rssMB, "MiB"}
	for _, class := range classes {
		m[class+"_p50_ms"] = metric{percentile(lat[class], 0.5), "ms"}
		m[class+"_p90_ms"] = metric{percentile(lat[class], tail), "ms"}
	}
	return m
}

// logCounts reports each class's sample count to stderr, flagging a tail
// with fewer than 10 samples beyond it.
func logCounts(workload string, lat map[string][]float64) {
	var parts []string
	for _, class := range classes {
		n := len(lat[class])
		beyond := float64(n) * (1 - tail)
		note := ""
		if beyond < 10 {
			note = " (tail has <10 samples beyond)"
		}
		parts = append(parts, fmt.Sprintf("%s=%d%s", class, n, note))
	}
	fmt.Fprintf(os.Stderr, "fairbench: %s samples: %s\n", workload, strings.Join(parts, " "))
}
