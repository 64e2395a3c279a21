package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sync"

	"fairtcim/internal/cascade"
	"fairtcim/internal/concave"
	"fairtcim/internal/fairim"
	"fairtcim/internal/graph"
	"fairtcim/internal/ris"
	"fairtcim/internal/server"
)

// answer is the part of a select or estimate response the correctness
// gate compares bit for bit.
type answer struct {
	Seeds    []graph.NodeID `json:"seeds"`
	Total    float64        `json:"total"`
	PerGroup []float64      `json:"per_group"`
}

func sameAnswer(a, b answer) bool {
	if !slices.Equal(a.Seeds, b.Seeds) || math.Float64bits(a.Total) != math.Float64bits(b.Total) ||
		len(a.PerGroup) != len(b.PerGroup) {
		return false
	}
	for i := range a.PerGroup {
		if math.Float64bits(a.PerGroup[i]) != math.Float64bits(b.PerGroup[i]) {
			return false
		}
	}
	return true
}

// sampling mirrors the daemon's decoding of the sampling fields the
// scripts set (RIS engine, IC model, explicit τ and pool) into a spec.
func sampling(tau *int32, samples, pool int, seed int64, eval string) fairim.ProblemSpec {
	var spec fairim.ProblemSpec
	if samples == 0 {
		samples = fairim.DefaultSamples
	}
	spec.Sampling = fairim.Sampling{Samples: samples, RISPerGroup: pool}
	spec.Tau, spec.Engine, spec.Model, spec.Seed = *tau, fairim.EngineRIS, cascade.IC, seed
	spec.ReportOnSample = eval == "sample"
	return spec
}

// selectSpec decodes a scripted select into the spec an in-process
// fairim.Solve takes.
func selectSpec(r server.SolveRequest) (fairim.ProblemSpec, error) {
	spec := sampling(r.Tau, r.Samples, r.RISPerGroup, r.Seed, r.Eval)
	var err error
	if spec.Problem, err = fairim.ProblemByName(r.Problem); err != nil {
		return spec, err
	}
	h := r.H
	if h == "" {
		h = "log"
	}
	if spec.H, err = concave.ByName(h); err != nil {
		return spec, err
	}
	spec.Budget, spec.Quota, spec.EvalSamples = r.Budget, r.Quota, r.EvalSamples
	return spec, nil
}

// estimateSpec decodes a scripted estimate into the spec an in-process
// fairim.Evaluate takes.
func estimateSpec(r server.EstimateRequest) fairim.ProblemSpec {
	spec := sampling(r.Tau, r.Samples, r.RISPerGroup, r.Seed, r.Eval)
	spec.Budget = len(r.Seeds)
	return spec
}

// sketchKey identifies the RR sketch a reference answer needs.
type sketchKey struct {
	tau  int32
	pool int
	seed int64
}

// refJob is one distinct spec to answer in process. Responses holds
// every HTTP answer to it (solo, batched, warm-replayed or reloaded).
type refJob struct {
	sel       *server.SolveRequest
	est       *server.EstimateRequest
	responses []answer
}

func (j *refJob) sketch() (sketchKey, bool) {
	if j.sel != nil {
		return sketchKey{*j.sel.Tau, j.sel.RISPerGroup, j.sel.Seed}, true
	}
	if j.est.Eval == "sample" {
		return sketchKey{*j.est.Tau, j.est.RISPerGroup, j.est.Seed}, true
	}
	return sketchKey{}, false // fresh estimates use no sketch
}

// gate collects every answer of a run and checks it.
type gate struct {
	g        *graph.Graph // the served graph at version 1
	jobs     map[string]*refJob
	order    []string
	failures []string
}

func newGate(g *graph.Graph) *gate { return &gate{g: g, jobs: map[string]*refJob{}} }

func (gt *gate) failf(format string, args ...any) {
	gt.failures = append(gt.failures, fmt.Sprintf(format, args...))
}

func (gt *gate) job(key string) *refJob {
	j := gt.jobs[key]
	if j == nil {
		j = &refJob{}
		gt.jobs[key] = j
		gt.order = append(gt.order, key)
	}
	return j
}

// add records one HTTP result for checking. Refresh and update results
// are checked by checkUpdates instead: a refreshed sketch is not a
// bit-reproducible function of its key.
func (gt *gate) add(r *result) {
	if r.failed() {
		gt.failf("%s %s: status %d, err %v", r.req.class, r.req.path, r.status, r.err)
		return
	}
	q := r.req
	switch {
	case q.class == classRefresh || q.class == classUpdate:
	case q.sel != nil:
		var a answer
		if err := json.Unmarshal(r.body, &a); err != nil {
			gt.failf("%s select: %v", q.class, err)
			return
		}
		j := gt.job("select " + string(q.body))
		j.sel = q.sel
		j.responses = append(j.responses, a)
	case q.est != nil:
		var a answer
		if err := json.Unmarshal(r.body, &a); err != nil {
			gt.failf("%s estimate: %v", q.class, err)
			return
		}
		j := gt.job("estimate " + string(q.body))
		j.est = q.est
		j.responses = append(j.responses, a)
	case q.batch != nil:
		var resp struct {
			Items []struct {
				Response *answer `json:"response"`
			} `json:"items"`
		}
		if err := json.Unmarshal(r.body, &resp); err != nil || len(resp.Items) != len(q.batch.Requests) {
			gt.failf("batch: %d items for %d requests (%v)", len(resp.Items), len(q.batch.Requests), err)
			return
		}
		for i, it := range resp.Items {
			if it.Response == nil {
				gt.failf("batch item %d failed", i)
				continue
			}
			sub := q.batch.Requests[i]
			j := gt.job("select " + string(mustJSON(sub)))
			j.sel = &sub
			j.responses = append(j.responses, *it.Response)
		}
	}
}

// verify answers every distinct spec in process — fairim.Solve for
// selects (batch items included: batched answers must equal solo ones),
// fairim.Evaluate for estimates — on workers goroutines, and compares
// each HTTP answer bit for bit. Specs sharing a sketch share one
// ris.Sample, injected as the estimator the way the daemon injects its
// cached sketch; sampling is deterministic, so this equals Solve's own.
func (gt *gate) verify(workers int) {
	groups := map[sketchKey][]*refJob{}
	var keys []sketchKey
	var sketchless []*refJob
	for _, k := range gt.order {
		j := gt.jobs[k]
		sk, ok := j.sketch()
		if !ok {
			sketchless = append(sketchless, j)
			continue
		}
		if groups[sk] == nil {
			keys = append(keys, sk)
		}
		groups[sk] = append(groups[sk], j)
	}
	work := make(chan []*refJob)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jobs := range work {
				var col *ris.Collection
				if sk, ok := jobs[0].sketch(); ok {
					var err error
					if col, err = ris.Sample(gt.g, sk.tau, pools(gt.g, sk.pool), sk.seed, 1); err != nil {
						mu.Lock()
						gt.failf("reference sketch %+v: %v", sk, err)
						mu.Unlock()
						continue
					}
				}
				for _, j := range jobs {
					msg := gt.check(j, col)
					if msg != "" {
						mu.Lock()
						gt.failures = append(gt.failures, msg)
						mu.Unlock()
					}
				}
			}
		}()
	}
	for _, k := range keys {
		work <- groups[k]
	}
	for _, j := range sketchless {
		work <- []*refJob{j}
	}
	close(work)
	wg.Wait()
}

// check computes j's reference answer over col and compares every HTTP
// answer to it, returning a failure message or "".
func (gt *gate) check(j *refJob, col *ris.Collection) string {
	var res *fairim.Result
	var err error
	var what string
	if j.sel != nil {
		what = string(mustJSON(j.sel))
		var spec fairim.ProblemSpec
		if spec, err = selectSpec(*j.sel); err == nil {
			spec.Estimator = ris.NewEstimator(col)
			spec.Parallelism = 1
			res, err = fairim.Solve(gt.g, spec)
		}
	} else {
		what = string(mustJSON(j.est))
		spec := estimateSpec(*j.est)
		if col != nil {
			spec.Estimator = ris.NewEstimator(col)
		}
		spec.Parallelism = 1
		res, err = fairim.Evaluate(gt.g, j.est.Seeds, spec)
	}
	if err != nil {
		return fmt.Sprintf("reference for %s: %v", what, err)
	}
	want := answer{Seeds: res.Seeds, Total: res.Total, PerGroup: res.PerGroup}
	for i, got := range j.responses {
		if !sameAnswer(got, want) {
			return fmt.Sprintf("answer %d of %d to %s differs from the in-process reference: got %+v, want %+v",
				i+1, len(j.responses), what, got, want)
		}
	}
	return ""
}

// checkUpdates validates the update phase in request order: each update
// moves the graph exactly one version and applies its whole batch, and
// each refresh select answers at the version of the update before it
// from a refreshed sketch covering the full pool, with budget-many
// distinct seeds.
func (gt *gate) checkUpdates(rs []result, pool int) {
	var version uint64 = 1
	for i := range rs {
		r := &rs[i]
		if r.failed() {
			continue // add reports it
		}
		switch r.req.class {
		case classUpdate:
			var u server.GraphUpdateResponse
			if err := json.Unmarshal(r.body, &u); err != nil {
				gt.failf("update response: %v", err)
				continue
			}
			if u.Version != version+1 || u.EdgesAdded != updAdds || u.EdgesRemoved != updRemoves || u.EdgesUpdated != updReweights {
				gt.failf("update to v%d: got version %d, %d added, %d removed, %d re-weighted", version+1,
					u.Version, u.EdgesAdded, u.EdgesRemoved, u.EdgesUpdated)
			}
			version = u.Version
		case classRefresh:
			var s server.SolveResponse
			if err := json.Unmarshal(r.body, &s); err != nil {
				gt.failf("refresh response: %v", err)
				continue
			}
			distinct := map[graph.NodeID]bool{}
			for _, v := range s.Seeds {
				if v >= 0 && int(v) < gt.g.N() {
					distinct[v] = true
				}
			}
			if s.GraphVersion != version || s.RRRefreshed+s.RRRetained != pool*gt.g.NumGroups() ||
				len(distinct) != r.req.sel.Budget || len(s.Seeds) != r.req.sel.Budget || s.CacheHit {
				gt.failf("refresh at v%d: version %d, rr %d+%d of %d, %d seeds (%d distinct) for budget %d, cache_hit %t",
					version, s.GraphVersion, s.RRRefreshed, s.RRRetained, pool*gt.g.NumGroups(),
					len(s.Seeds), len(distinct), r.req.sel.Budget, s.CacheHit)
			}
		}
	}
}
