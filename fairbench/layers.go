package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"fairtcim/internal/cascade"
	"fairtcim/internal/estimator"
	"fairtcim/internal/fairim"
	"fairtcim/internal/graph"
	"fairtcim/internal/influence"
	"fairtcim/internal/persist"
	"fairtcim/internal/ris"
	"fairtcim/internal/server"
)

// The traced run replays each phase's requests in process as the
// sequence of public calls the daemon makes per request, each call
// wrapped in a span. Spans live in memory until the replay ends; a
// layer's self time is its spans' durations minus the time their child
// spans cover. End-to-end metrics never come from this mode.

// Requests replayed per phase: the first ones the HTTP run sent. The
// reload replay revisits the replayed builds.
var replayCount = map[string]int{
	phaseWarm: 160, phaseFresh: 40, phaseBuild: 40,
	phaseUpdate: 40, // 20 update cycles
}

type span struct {
	name       string
	req        int // request id: spans of one request share it
	parent     int // index into spans; -1 for a request's root
	start, end time.Time
}

// tracer records spans when on; off, begin and finish cost a branch.
type tracer struct {
	on    bool
	req   int
	spans []span
	stack []int
}

func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, req: t.req, parent: parent, start: time.Now()})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) finish(id int) {
	if id < 0 {
		return
	}
	t.spans[id].end = time.Now()
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes sums each span name's self time and counts its spans.
func (t *tracer) selfTimes() (map[string]time.Duration, map[string]int) {
	self := map[string]time.Duration{}
	calls := map[string]int{}
	for _, s := range t.spans {
		self[s.name] += s.end.Sub(s.start)
		calls[s.name]++
		if s.parent >= 0 {
			self[t.spans[s.parent].name] -= s.end.Sub(s.start)
		}
	}
	return self, calls
}

type memoKey struct {
	sk      sketchKey
	problem fairim.Problem
}

// replayer holds the in-process counterpart of the daemon's state.
type replayer struct {
	g     *graph.Graph
	tr    *tracer
	cols  map[sketchKey]*ris.Collection // resident version-1 sketches
	memo  map[memoKey]*fairim.WarmStart // prefix memo (pre-warmed keys only)
	dir   string                        // persisted sketches
	meta  persist.Meta
	cur   map[int64]*ris.Collection // refresh keys' sketches at the current version
	ver   uint64
	heads []graph.NodeID // touched by the last update

	rrSets, evals, solves int
	frameBytes, frames    int64
	lat                   map[string][]float64 // per-request wall ms by class
}

func newReplayer(r *run, on bool, dir string) (*replayer, error) {
	rp := &replayer{
		g: r.g, tr: &tracer{on: on}, dir: dir, ver: 1,
		cols: map[sketchKey]*ris.Collection{}, memo: map[memoKey]*fairim.WarmStart{},
		cur: map[int64]*ris.Collection{}, lat: map[string][]float64{},
		meta: persist.Meta{Kind: ris.CodecKind, Version: ris.CodecVersion,
			Fingerprint: persist.VersionedFingerprint(persist.GraphFingerprint(r.g), 1)},
	}
	// Untraced set-up, like the daemon's pre-warm: resident sketches and
	// the longest prefix of every budget key.
	for _, q := range r.sc.prewarm() {
		spec, err := selectSpec(*q.sel)
		if err != nil {
			return nil, err
		}
		sk := sketchKey{*q.sel.Tau, q.sel.RISPerGroup, q.sel.Seed}
		col := rp.cols[sk]
		if col == nil {
			if col, err = ris.Sample(r.g, sk.tau, pools(r.g, sk.pool), sk.seed, 0); err != nil {
				return nil, err
			}
			rp.cols[sk] = col
			rp.cur[sk.seed] = col
		}
		spec.Estimator = ris.NewEstimator(col)
		spec.CaptureWarm = true
		res, err := fairim.Solve(r.g, spec)
		if err != nil {
			return nil, err
		}
		rp.memo[memoKey{sk, spec.Problem}] = res.Warm
	}
	return rp, nil
}

func pools(g *graph.Graph, pool int) []int {
	out := make([]int, g.NumGroups())
	for i := range out {
		out[i] = pool
	}
	return out
}

// call wraps f in a span.
func (rp *replayer) call(name string, f func() error) error {
	id := rp.tr.begin(name)
	err := f()
	rp.tr.finish(id)
	return err
}

func (rp *replayer) path(sk sketchKey) string {
	return filepath.Join(rp.dir, fmt.Sprintf("%d-%d-%d.sample", sk.tau, sk.pool, sk.seed))
}

// acquire obtains a request's sketch the way its class does in the
// daemon: resident, sampled (then written behind), loaded from disk, or
// refreshed against the last update.
func (rp *replayer) acquire(class string, sk sketchKey) (*ris.Collection, error) {
	var col *ris.Collection
	var err error
	switch class {
	case classBuild:
		err = rp.call("ris.sample", func() error {
			col, err = ris.Sample(rp.g, sk.tau, pools(rp.g, sk.pool), sk.seed, 0)
			return err
		})
		if err == nil {
			rp.rrSets += col.NumSets()
		}
	case classReload:
		var payload []byte
		var version uint32
		err = rp.call("persist.load", func() error {
			payload, version, err = persist.LoadRange(rp.path(sk), rp.meta, ris.CodecMinVersion)
			return err
		})
		if err == nil {
			err = rp.call("ris.decode", func() error {
				col, err = ris.DecodePayloadVersion(version, payload, rp.g)
				return err
			})
		}
	case classRefresh:
		// The daemon mixes the target version into the refresh seed.
		seed := sk.seed ^ int64(rp.ver*0x9E3779B97F4A7C15)
		err = rp.call("ris.refresh", func() error {
			col, _, err = rp.cur[sk.seed].Refresh(rp.g, rp.heads, seed, 0, 0, nil)
			return err
		})
		if err == nil {
			rp.cur[sk.seed] = col
		}
	default:
		col = rp.cols[sk]
		if col == nil {
			err = fmt.Errorf("no resident sketch %+v", sk)
		}
	}
	return col, err
}

// writeBehind persists a built sketch, as the daemon does off the
// request path.
func (rp *replayer) writeBehind(sk sketchKey, col *ris.Collection) error {
	var payload []byte
	rp.call("ris.encode", func() error { payload = col.EncodePayload(); return nil })
	path := rp.path(sk)
	if err := rp.call("persist.save", func() error { return persist.Save(path, rp.meta, payload) }); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	rp.frameBytes += info.Size()
	rp.frames++
	return nil
}

// freshReport is the fresh-world report fairim runs after a solve or for
// an estimate: world sampling, then forward evaluation of the seed set.
func (rp *replayer) freshReport(seeds []graph.NodeID, spec fairim.ProblemSpec, worlds int) ([]float64, error) {
	var ws []*cascade.World
	rp.call("cascade.sample_worlds", func() error {
		ws = cascade.SampleWorlds(rp.g, cascade.IC, worlds, spec.Seed+1, 0)
		return nil
	})
	var util []float64
	err := rp.call("influence.eval", func() error {
		ev, err := influence.NewEvaluator(rp.g, ws, spec.Tau)
		if err != nil {
			return err
		}
		for _, v := range seeds {
			ev.Add(v)
		}
		util = ev.GroupUtilities()
		return nil
	})
	return util, err
}

func (rp *replayer) encode(v any) error {
	return rp.call("server.encode", func() error { _, err := json.Marshal(v); return err })
}

// solveSelect runs one select after its sketch is acquired.
func (rp *replayer) solveSelect(class string, spec fairim.ProblemSpec, sk sketchKey, col *ris.Collection) (*fairim.Result, error) {
	rp.call("ris.new_estimator", func() error { spec.Estimator = ris.NewEstimator(col); return nil })
	mk := memoKey{sk, spec.Problem}
	if spec.Problem.IsBudget() {
		spec.CaptureWarm = true
		if class == classWarm || class == classFresh {
			spec.Warm = rp.memo[mk]
		}
	}
	fresh := !spec.ReportOnSample
	spec.ReportOnSample = true
	var res *fairim.Result
	err := rp.call("fairim.solve", func() error {
		var err error
		res, err = fairim.Solve(rp.g, spec)
		return err
	})
	if err != nil {
		return nil, err
	}
	rp.evals += res.Evaluations
	rp.solves++
	if fresh {
		err = rp.call("fairim.evaluate", func() error {
			var err error
			res.PerGroup, err = rp.freshReport(res.Seeds, spec, spec.EvalSamples)
			return err
		})
	}
	return res, err
}

// replay runs one request.
func (rp *replayer) replay(q *request) error {
	switch {
	case q.upd != nil:
		var req server.GraphUpdateRequest
		rp.call("server.decode", func() error { return json.Unmarshal(q.body, &req) })
		var ng *graph.Graph
		var res *graph.DeltaResult
		err := rp.call("graph.apply_delta", func() error {
			var err error
			ng, res, err = rp.g.ApplyDelta(graph.Delta{Edges: req.Edges, Groups: req.Groups})
			return err
		})
		if err != nil {
			return err
		}
		rp.g, rp.heads = ng, res.TouchedHeads
		rp.ver++
		return rp.encode(server.GraphUpdateResponse{Version: rp.ver, EdgesAdded: res.EdgesAdded,
			EdgesRemoved: res.EdgesRemoved, EdgesUpdated: res.EdgesUpdated, TouchedHeads: res.TouchedHeads})
	case q.sel != nil:
		var req server.SolveRequest
		var spec fairim.ProblemSpec
		err := rp.call("server.decode", func() error {
			if err := json.Unmarshal(q.body, &req); err != nil {
				return err
			}
			var err error
			spec, err = selectSpec(req)
			return err
		})
		if err != nil {
			return err
		}
		sk := sketchKey{*req.Tau, req.RISPerGroup, req.Seed}
		col, err := rp.acquire(q.class, sk)
		if err != nil {
			return err
		}
		res, err := rp.solveSelect(q.class, spec, sk, col)
		if err != nil {
			return err
		}
		if err := rp.encode(server.SolveResponse{UtilityReport: server.UtilityReport{Seeds: res.Seeds,
			Total: res.Total, PerGroup: res.PerGroup}, Evaluations: res.Evaluations}); err != nil {
			return err
		}
		if q.class == classBuild {
			return rp.writeBehind(sk, col)
		}
		return nil
	case q.est != nil:
		var req server.EstimateRequest
		rp.call("server.decode", func() error { return json.Unmarshal(q.body, &req) })
		spec := estimateSpec(req)
		var res *fairim.Result
		var err error
		if spec.ReportOnSample {
			sk := sketchKey{*req.Tau, req.RISPerGroup, req.Seed}
			col, err := rp.acquire(q.class, sk)
			if err != nil {
				return err
			}
			rp.call("ris.new_estimator", func() error { spec.Estimator = ris.NewEstimator(col); return nil })
			err = rp.call("fairim.evaluate", func() error {
				var err error
				res, err = fairim.Evaluate(rp.g, req.Seeds, spec)
				return err
			})
		} else {
			res = &fairim.Result{Seeds: req.Seeds}
			err = rp.call("fairim.evaluate", func() error {
				var err error
				res.PerGroup, err = rp.freshReport(req.Seeds, spec, spec.Sampling.Samples)
				return err
			})
		}
		if err != nil {
			return err
		}
		return rp.encode(server.EstimateResponse{UtilityReport: server.UtilityReport{Seeds: res.Seeds, PerGroup: res.PerGroup}})
	case q.batch != nil:
		var req server.BatchSolveRequest
		var specs []fairim.ProblemSpec
		err := rp.call("server.decode", func() error {
			if err := json.Unmarshal(q.body, &req); err != nil {
				return err
			}
			for _, sub := range req.Requests {
				spec, err := selectSpec(sub)
				if err != nil {
					return err
				}
				specs = append(specs, spec)
			}
			return nil
		})
		if err != nil {
			return err
		}
		key := func(s fairim.ProblemSpec) sketchKey { return sketchKey{s.Tau, s.Sampling.RISPerGroup, s.Seed} }
		var outcomes []fairim.BatchOutcome
		rp.call("fairim.solve_batch", func() error {
			outcomes, _ = fairim.SolveBatch(rp.g, specs, &fairim.BatchOptions{
				Estimator: func(_ int, rep fairim.ProblemSpec) (est estimator.Estimator, err error) {
					col := rp.cols[key(rep)]
					rp.call("ris.new_estimator", func() error { est = ris.NewEstimator(col); return nil })
					return est, nil
				},
				Warm: func(_ int, rep fairim.ProblemSpec) *fairim.WarmStart {
					return rp.memo[memoKey{key(rep), rep.Problem}]
				},
			})
			return nil
		})
		items := make([]server.BatchItem, len(outcomes))
		for i, o := range outcomes {
			if o.Err != nil {
				return o.Err
			}
			items[i].Response = &server.SolveResponse{UtilityReport: server.UtilityReport{Seeds: o.Result.Seeds,
				Total: o.Result.Total, PerGroup: o.Result.PerGroup}}
		}
		return rp.encode(server.BatchSolveResponse{Items: items})
	}
	return fmt.Errorf("empty request")
}

// pass replays the first requests of every phase, timing each request.
// The reload replay revisits the keys the build replay persisted, and the
// updates come last, since they move the replay's graph.
func (rp *replayer) pass(r *run) error {
	var builds []*request
	for _, name := range []string{phaseWarm, phaseFresh, phaseBuild, phaseReload, phaseUpdate} {
		var reqs []*request
		if name == phaseReload {
			for _, q := range builds {
				reqs = append(reqs, reloadRequest(q))
			}
		} else {
			for _, res := range r.results(name) {
				if len(reqs) == replayCount[name] {
					break
				}
				reqs = append(reqs, res.req)
			}
		}
		if name == phaseBuild {
			builds = reqs
		}
		for _, q := range reqs {
			rp.tr.req++
			start := time.Now()
			root := rp.tr.begin("request")
			err := rp.replay(q)
			rp.tr.finish(root)
			if err != nil {
				return fmt.Errorf("replaying %s %s: %w", q.class, q.path, err)
			}
			rp.lat[q.class] = append(rp.lat[q.class], float64(time.Since(start).Nanoseconds())/1e6)
		}
	}
	return nil
}

// spanCostMS is the wall time one span adds to a traced request: the
// median over five timings of 10,000 nested begin/finish pairs. Timing
// it directly, instead of differencing the traced and untraced passes,
// keeps pass-to-pass noise (GC ramp-up, host drift), which is far larger
// than a span's cost, out of the overhead.
func spanCostMS() float64 {
	const n = 10000
	var costs []float64
	for i := 0; i < 5; i++ {
		t := &tracer{on: true}
		start := time.Now()
		root := t.begin("request")
		for j := 0; j < n; j++ {
			t.finish(t.begin("layer"))
		}
		t.finish(root)
		costs = append(costs, float64(time.Since(start).Nanoseconds())/1e6/n)
	}
	return median(costs)
}

func totalMS(lat map[string][]float64) float64 {
	var t float64
	for _, v := range lat {
		for _, x := range v {
			t += x
		}
	}
	return t
}

// replayLayers runs the replay with spans off and then on, and derives
// the span-timed per-layer metrics, the tracing overhead (the traced
// pass's spans times the cost of one, over the untraced pass's time), and
// the serving glue: HTTP p50 minus untraced replay p50 per class.
func replayLayers(r *run, httpLat map[string][]float64) (map[string]metric, error) {
	var plain, traced *replayer
	for _, on := range []bool{false, true} {
		dir, err := os.MkdirTemp(r.dir, "replay-")
		if err != nil {
			return nil, err
		}
		rp, err := newReplayer(r, on, dir)
		if err != nil {
			return nil, err
		}
		if on {
			for i := 0; i < 3; i++ {
				if err := rp.call("graph.read", func() error { _, err := readGraph(r.graphPath); return err }); err != nil {
					return nil, err
				}
			}
		}
		if err := rp.pass(r); err != nil {
			return nil, err
		}
		if on {
			traced = rp
		} else {
			plain = rp
		}
	}
	self, calls := traced.tr.selfTimes()
	m := map[string]metric{}
	perCall := func(metricName, spanName string) {
		v := 0.0
		if calls[spanName] > 0 {
			v = float64(self[spanName].Nanoseconds()) / 1e6 / float64(calls[spanName])
		}
		m[metricName] = metric{v, "ms"}
	}
	for _, name := range []string{
		"graph.read", "graph.apply_delta", "ris.sample", "ris.refresh", "ris.new_estimator",
		"ris.encode", "persist.save", "persist.load", "ris.decode", "cascade.sample_worlds",
		"influence.eval", "fairim.solve", "fairim.solve_batch", "fairim.evaluate",
		"server.decode", "server.encode",
	} {
		perCall(name+"_ms", name)
	}
	rate := 0.0
	if s := self["ris.sample"].Seconds(); s > 0 {
		rate = float64(traced.rrSets) / s
	}
	m["ris.rr_sets_per_s"] = metric{rate, "1/s"}
	m["persist.frame_bytes"] = metric{ratio(float64(traced.frameBytes), float64(traced.frames)), "bytes"}
	m["fairim.evaluations"] = metric{ratio(float64(traced.evals), float64(traced.solves)), "count"}
	overhead := float64(len(traced.tr.spans)) * spanCostMS()
	m["trace.overhead_frac"] = metric{ratio(overhead, totalMS(plain.lat)), "frac"}
	for _, class := range classes {
		rl := append([]float64(nil), plain.lat[class]...)
		sort.Float64s(rl)
		m["server.glue_"+class+"_ms"] = metric{percentile(httpLat[class], 0.5) - percentile(rl, 0.5), "ms"}
	}
	return m, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
