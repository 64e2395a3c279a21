package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"fairtcim/internal/generate"
	"fairtcim/internal/graph"
	"fairtcim/internal/server"
)

// phaseRun is one timed phase of a run.
type phaseRun struct {
	name          string
	results       []result
	elapsed       time.Duration
	cpuTicks      int64
	before, after server.StatsResponse
}

// run is one benchmark run: a generated graph, a daemon, and the timed
// phases against it.
type run struct {
	p        params
	workload string
	seconds  int
	seed     uint64
	bin      string // fairtcimd binary
	dir      string // per-run scratch: graph file and state dirs

	graphPath string
	g         *graph.Graph // the graph as the daemon reads it
	sc        *script

	setupS []float64
	phases []*phaseRun
	rssMB  float64
}

// graphSeed draws the one twoblock-20k instance every run serves. The
// workload seed does not draw the graph: CELF's lazy re-evaluations per
// cover vary threefold between sketches of different instances, and with
// the graph drawn from the workload seed the warm p50 spread 0.2 over
// five seeds. The workload seed draws everything else.
const graphSeed = 1

// makeGraph generates twoblock-20k, the §6.1 two-block SBM (majority
// share 0.7, activation 0.05) at p.nodes nodes with the within- and
// across-group edge probabilities scaled by 500/n, so its mean degree
// matches the paper's 500-node instance. It writes the edge list the
// daemon serves and reads it back, so the in-process reference runs on
// exactly the parsed graph.
func (r *run) makeGraph() error {
	cfg := generate.DefaultTwoBlock(graphSeed)
	scale := 500 / float64(r.p.nodes)
	cfg.N, cfg.PHom, cfg.PHet = r.p.nodes, cfg.PHom*scale, cfg.PHet*scale
	g, err := generate.TwoBlock(cfg)
	if err != nil {
		return err
	}
	r.graphPath = filepath.Join(r.dir, "graph.txt")
	f, err := os.Create(r.graphPath)
	if err != nil {
		return err
	}
	if err := graph.Write(f, g); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if r.g, err = readGraph(r.graphPath); err != nil {
		return err
	}
	r.sc = &script{p: r.p, seed: r.seed, n: r.g.N()}
	return nil
}

func readGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.Read(f)
}

// setup spawns a daemon on a fresh state dir and pre-warms it, recording
// in r.setupS the seconds from spawn to ready (graph loaded, every
// pre-warm request answered).
func (r *run) setup(i int, c *http.Client) (*daemon, string, error) {
	state := filepath.Join(r.dir, fmt.Sprintf("state-%d", i))
	start := time.Now()
	d, err := startDaemon(r.bin, r.graphPath, state)
	if err != nil {
		return nil, state, err
	}
	for _, q := range r.sc.prewarm() {
		if err := mustOK(c, d.url(""), q); err != nil {
			stopErr := d.stop()
			return nil, state, fmt.Errorf("pre-warm: %w (stop: %v)", err, stopErr)
		}
	}
	r.setupS = append(r.setupS, time.Since(start).Seconds())
	return d, state, nil
}

// setupsPerRound is how many throwaway set-ups are timed after every
// round. setup_s is the median over them and the main daemon's set-up,
// spread through the run: set-ups taken back to back at its start all
// inherited the host's speed of that moment, and the median of five
// spread 0.27 over ten seeds.
const setupsPerRound = 2

// sampleSetup times one more set-up on a throwaway daemon, then stops it
// and removes its state dir.
func (r *run) sampleSetup(i int) error {
	c := newClient()
	defer c.CloseIdleConnections()
	d, state, err := r.setup(i, c)
	if err != nil {
		return err
	}
	err = d.stop()
	if rmErr := os.RemoveAll(state); err == nil {
		err = rmErr
	}
	return err
}

// execute performs the whole run: the main daemon's set-up, the timed
// rounds, teardown. Every daemon is stopped (SIGTERM, then waited for)
// before its state dir is removed.
func (r *run) execute() error {
	c := newClient()
	defer c.CloseIdleConnections()
	d, state, err := r.setup(0, c)
	if err != nil {
		return err
	}
	err = r.timed(d, c)
	if err == nil {
		r.rssMB, err = d.peakRSSMB()
	}
	c.CloseIdleConnections()
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if rmErr := os.RemoveAll(state); err == nil {
		err = rmErr
	}
	return err
}

// timed runs the rounds. Each round re-warms (untimed) what the previous
// round's builds evicted, runs its slice of every phase, and then times
// throwaway set-ups while the main daemon idles.
func (r *run) timed(d *daemon, c *http.Client) error {
	base := d.url("")
	counts := r.p.counts(r.workload, r.seconds)

	// The untimed backlog the reload cursor trails by reloadLag keys.
	var built []*request
	for len(built) < reloadLag {
		q := r.sc.buildRequest(len(built))
		if err := mustOK(c, base, q); err != nil {
			return err
		}
		built = append(built, q)
	}
	warm, fresh := r.sc.warmScript(), r.sc.freshScript()
	arcs := newArcState(r.g, r.seed)
	refresh := newSelect(classRefresh, r.sc.refresh())
	var nWarm, nFresh, nReload int
	var version uint64 = 1
	// next returns a phase's next request (an update cycle: two).
	next := map[string]func() []*request{
		phaseWarm:   func() []*request { nWarm++; return []*request{warm[(nWarm-1)%len(warm)]} },
		phaseFresh:  func() []*request { nFresh++; return []*request{fresh[(nFresh-1)%len(fresh)]} },
		phaseUpdate: func() []*request { version++; return []*request{arcs.next(version - 1), refresh} },
		phaseBuild: func() []*request {
			built = append(built, r.sc.buildRequest(len(built)))
			return built[len(built)-1:]
		},
		phaseReload: func() []*request { nReload++; return []*request{reloadRequest(built[nReload-1])} },
	}
	for round := 0; round < rounds; round++ {
		for _, q := range r.sc.prewarm() {
			if err := mustOK(c, base, q); err != nil {
				return err
			}
		}
		for _, name := range phases {
			if name == phaseReload {
				if err := d.waitFlushes(c); err != nil {
					return err
				}
			}
			var reqs []*request
			for i := 0; i < slice(counts[name], round); i++ {
				reqs = append(reqs, next[name]()...)
			}
			if err := r.phase(d, c, name, reqs); err != nil {
				return err
			}
		}
		for i := 0; i < setupsPerRound; i++ {
			if err := r.sampleSetup(len(r.setupS)); err != nil {
				return err
			}
		}
	}
	return nil
}

// phase runs one slice of a phase, recording stats and daemon CPU around
// it.
func (r *run) phase(d *daemon, c *http.Client, name string, reqs []*request) error {
	pr := &phaseRun{name: name}
	var err error
	if pr.before, err = d.stats(c); err != nil {
		return err
	}
	cpu0, err := d.cpuTicks()
	if err != nil {
		return err
	}
	pr.results, pr.elapsed = closedLoop(c, d.url(""), reqs)
	cpu1, err := d.cpuTicks()
	if err != nil {
		return err
	}
	pr.cpuTicks = cpu1 - cpu0
	if pr.after, err = d.stats(c); err != nil {
		return err
	}
	r.phases = append(r.phases, pr)
	return nil
}

// results returns the results of every slice of the named phase, in
// order.
func (r *run) results(name string) []result {
	var out []result
	for _, ph := range r.phases {
		if ph.name == name {
			out = append(out, ph.results...)
		}
	}
	return out
}

// classLatencies groups the timed latencies (ms) by class, sorted.
func (r *run) classLatencies() map[string][]float64 {
	out := map[string][]float64{}
	for _, ph := range r.phases {
		for _, res := range ph.results {
			out[res.req.class] = append(out[res.req.class], float64(res.lat.Nanoseconds())/1e6)
		}
	}
	for _, v := range out {
		sort.Float64s(v)
	}
	return out
}

// checkMix asserts each slice's /v1/stats deltas show the class mix its
// phase is meant to measure; a deviating run measured another workload.
func (r *run) checkMix(gt *gate) {
	for _, ph := range r.phases {
		b, a := ph.before, ph.after
		builds := a.Cache.Builds - b.Cache.Builds
		misses := a.Cache.Misses - b.Cache.Misses
		disk := a.Cache.DiskHits - b.Cache.DiskHits
		refreshes := a.Cache.Refreshes - b.Cache.Refreshes
		n := int64(len(ph.results))
		if shed := a.Workers.Shed - b.Workers.Shed; shed != 0 {
			gt.failf("%s phase: %d requests shed", ph.name, shed)
		}
		switch ph.name {
		case phaseWarm, phaseFresh:
			if builds != 0 || misses != 0 || disk != 0 {
				gt.failf("%s phase: %d builds, %d misses, %d disk hits; want all 0", ph.name, builds, misses, disk)
			}
		case phaseBuild:
			if builds != n || disk != 0 {
				gt.failf("build phase: %d builds and %d disk hits for %d requests", builds, disk, n)
			}
		case phaseReload:
			if disk != n || builds != 0 {
				gt.failf("reload phase: %d disk hits and %d builds for %d requests", disk, builds, n)
			}
		case phaseUpdate:
			refreshSelects := int64(0)
			for _, res := range ph.results {
				if res.req.class == classRefresh {
					refreshSelects++
				}
			}
			if refreshes != refreshSelects || builds != 0 {
				gt.failf("update phase: %d refreshes and %d builds for %d refresh selects", refreshes, builds, refreshSelects)
			}
		}
	}
}

// counterMetrics derives the per-layer counters of the HTTP run: cache
// counters from /v1/stats deltas over the timed phases, and ratios of
// response fields.
func (r *run) counterMetrics() map[string]metric {
	// Summed over the phases, so untimed requests between them (the
	// refresh key's re-warm) do not count.
	delta := func(f func(server.StatsResponse) int64) float64 {
		var d int64
		for _, ph := range r.phases {
			d += f(ph.after) - f(ph.before)
		}
		return float64(d)
	}
	hits := delta(func(s server.StatsResponse) int64 { return s.Cache.Hits })
	misses := delta(func(s server.StatsResponse) int64 { return s.Cache.Misses })
	refreshed := delta(func(s server.StatsResponse) int64 { return s.Cache.RRRefreshed })
	retained := delta(func(s server.StatsResponse) int64 { return s.Cache.RRRetained })
	m := map[string]metric{
		"server.cache_hit_ratio": {ratio(hits, hits+misses), "frac"},
		"server.builds":          {delta(func(s server.StatsResponse) int64 { return s.Cache.Builds }), "count"},
		"server.disk_hits":       {delta(func(s server.StatsResponse) int64 { return s.Cache.DiskHits }), "count"},
		"server.refreshes":       {delta(func(s server.StatsResponse) int64 { return s.Cache.Refreshes }), "count"},
		"server.evictions":       {delta(func(s server.StatsResponse) int64 { return s.Cache.Evictions }), "count"},
		"server.shed":            {delta(func(s server.StatsResponse) int64 { return s.Workers.Shed }), "count"},
		"server.rr_dirty_frac":   {ratio(refreshed, refreshed+retained), "frac"},
	}

	// Response fields. sample_ms on a cache hit echoes the original build cost,
	// so acquisition is counted only where the request paid it: the
	// build, reload and refresh classes.
	var warmSeeds, picks, evals, batches, groups float64
	var solveMS, overheadMS []float64
	for _, ph := range r.phases {
		for _, res := range ph.results {
			if res.failed() || res.req.upd != nil {
				continue
			}
			var sel []server.SolveResponse
			var solve, sample float64
			switch {
			case res.req.batch != nil:
				var br server.BatchSolveResponse
				if json.Unmarshal(res.body, &br) != nil {
					continue
				}
				batches++
				groups += float64(br.PlannerGroups)
				for _, it := range br.Items {
					if it.Response != nil {
						sel = append(sel, *it.Response)
						solve = it.Response.SolveMS
					}
				}
			case res.req.sel != nil:
				var sr server.SolveResponse
				if json.Unmarshal(res.body, &sr) != nil {
					continue
				}
				sel = append(sel, sr)
				solve, sample = sr.SolveMS, sr.SampleMS
			default:
				var er server.EstimateResponse
				if json.Unmarshal(res.body, &er) != nil {
					continue
				}
				solve, sample = er.SolveMS, er.SampleMS
			}
			for _, s := range sel {
				warmSeeds += float64(s.WarmSeeds)
				picks += float64(len(s.Seeds))
				evals += float64(s.Evaluations)
			}
			if res.req.class != classBuild && res.req.class != classReload && res.req.class != classRefresh {
				sample = 0
			}
			if res.req.class == classWarm {
				solveMS = append(solveMS, solve)
				overheadMS = append(overheadMS, float64(res.lat.Nanoseconds())/1e6-solve-sample)
			}
		}
	}
	m["server.prefix_replay_frac"] = metric{ratio(warmSeeds, picks), "frac"}
	m["server.evals_per_pick"] = metric{ratio(evals, picks), "count"}
	m["server.planner_groups_per_batch"] = metric{ratio(groups, batches), "count"}
	m["server.solve_ms"] = metric{median(solveMS), "ms"}
	m["server.overhead_ms"] = metric{median(overheadMS), "ms"}
	return m
}
