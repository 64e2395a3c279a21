package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"fairtcim/internal/graph"
	"fairtcim/internal/server"
)

// Request classes. Each class has its own latency percentiles, because
// pooling classes whose latencies differ by an order of magnitude makes
// every percentile depend on the mix instead of on the code.
const (
	classWarm    = "warm"    // answered from a resident sketch, no sampling
	classFresh   = "fresh"   // resident sketch, report on fresh Monte-Carlo worlds
	classBuild   = "build"   // never-seen sampling seed: RR-sketch build + first CELF
	classReload  = "reload"  // memory miss served from the state dir
	classUpdate  = "update"  // one graph delta batch
	classRefresh = "refresh" // first select after an update: incremental sketch refresh
)

// classes lists every class in report order.
var classes = []string{classWarm, classFresh, classBuild, classReload, classUpdate, classRefresh}

// Phases. A run is a sequence of rounds; each round runs a slice of every
// phase, so every class's samples spread over the whole run instead of
// one stretch of it (on a shared 2-CPU box, speed drifts over seconds,
// and a class measured in one stretch inherited that stretch's speed).
// Within a round: warm and fresh first, right after their keys are
// re-warmed; then the update cycles; then the build slice, and after the
// untimed flush sync, the reload slice.
const (
	phaseWarm   = "warm"
	phaseFresh  = "fresh"
	phaseUpdate = "update" // update + refresh cycles
	phaseBuild  = "build"
	phaseReload = "reload"
)

var phases = []string{phaseWarm, phaseFresh, phaseUpdate, phaseBuild, phaseReload}

// rounds per run.
const rounds = 8

// workloads maps each workload to its primary phases, which run
// primaryFactor times their base request count. Every run reports every
// class; the workloads differ in which classes dominate the whole-run
// metrics (throughput, CPU per op, peak RSS) and in how many samples back
// their own percentiles.
var workloads = map[string][]string{
	"warm-solve":     {phaseWarm},
	"cold-reload":    {phaseBuild, phaseReload},
	"update-refresh": {phaseUpdate},
	"fresh-eval":     {phaseFresh},
}

const primaryFactor = 2

// The daemon serves the generated graph twice: updates go to the dynamic
// copy only, so the other classes keep answering at version 1 while
// update cycles are interleaved with them.
const (
	graphName    = "twoblock-20k"
	dynGraphName = "twoblock-20k-dyn"
)

// designSeconds is the --seconds the base counts are sized for: at it,
// the timed slices of a run take about that long on a 2-CPU box. Other
// values scale every count.
const designSeconds = 20

// params sizes a run. defaultParams is the benchmark; the smoke test uses
// a toy size.
type params struct {
	nodes       int // graph size
	pool        int // RR sets per group (ris_per_group)
	evalSamples int // fresh worlds per report
	maxBudget   int // longest prefix pre-warmed per budget key
	// count is each phase's base request count per run (update: cycles),
	// at designSeconds. Each gives its class's p90 at least 10 samples
	// beyond it.
	count map[string]int
	// warmTail is the warm count when warm is primary: enough samples for
	// the warm p99 diagnostic.
	warmTail int
}

func defaultParams() params {
	return params{
		nodes:       20000,
		pool:        4000,
		evalSamples: 24,
		maxBudget:   30,
		count: map[string]int{
			phaseWarm:   200, // 20 samples beyond p90
			phaseFresh:  160,
			phaseBuild:  160,
			phaseReload: 160,
			phaseUpdate: 120, // 120 updates and 120 refreshes
		},
		warmTail: 1100, // 11 beyond p99
	}
}

// counts returns each phase's request count for a run of the workload.
func (p params) counts(workload string, seconds int) map[string]int {
	out := map[string]int{}
	for ph, n := range p.count {
		out[ph] = n
	}
	for _, ph := range workloads[workload] {
		out[ph] *= primaryFactor
		if ph == phaseWarm && out[ph] < p.warmTail {
			out[ph] = p.warmTail
		}
	}
	for ph, n := range out {
		if out[ph] = n * seconds / designSeconds; out[ph] < rounds {
			out[ph] = rounds
		}
	}
	// Reload revisits built keys one for one.
	out[phaseReload] = out[phaseBuild]
	return out
}

// slice is round r's share of n requests.
func slice(n, r int) int { return n*(r+1)/rounds - n*r/rounds }

// reloadLag is how many keys are built (untimed) before the first timed
// round, and so how far the reload cursor trails the build cursor. It
// exceeds the daemon's default 32-entry sample cache and prefix memo, so
// at least that many other keys enter the cache between a key's build and
// its reload, and every reload is a memory miss served from disk.
const reloadLag = 40

// Sampling seeds of the pre-warmed sketches. Build seeds start at a
// multiple of buildSeedBase drawn from the workload seed, and never
// collide with them.
const (
	warmSeedA     = 101
	warmSeedB     = 102
	refreshSeed   = 201
	buildSeedBase = 1_000_000
)

// request is one scripted HTTP request. Exactly one of the typed bodies is
// set; body is its JSON encoding.
type request struct {
	class string
	path  string
	body  []byte
	sel   *server.SolveRequest
	est   *server.EstimateRequest
	batch *server.BatchSolveRequest
	upd   *server.GraphUpdateRequest
}

func tau(t int32) *int32 { return &t }

// script builds the deterministic request streams of one run.
type script struct {
	p    params
	seed uint64
	n    int // graph size, for drawing seed sets
}

// rng returns the generator of one request stream.
func (s *script) rng(stream int) *rand.Rand {
	return rand.New(rand.NewPCG(s.seed, uint64(stream)))
}

// selectReq is the base select spec: RIS engine, τ=20, explicit pool.
func (s *script) selectReq(problem string, seed int64, eval string) server.SolveRequest {
	return server.SolveRequest{
		Graph:       graphName,
		Problem:     problem,
		Tau:         tau(20),
		Engine:      "ris",
		RISPerGroup: s.p.pool,
		Seed:        seed,
		Eval:        eval,
	}
}

func newSelect(class string, r server.SolveRequest) *request {
	return &request{class: class, path: "/v1/select", body: mustJSON(r), sel: &r}
}

func newEstimate(class string, r server.EstimateRequest) *request {
	return &request{class: class, path: "/v1/estimate", body: mustJSON(r), est: &r}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain request structs are encoded
	}
	return b
}

// Scripts rotate through problems, quotas and budgets in a fixed order
// instead of drawing them, so every seed runs the same mix of work; the
// workload seed draws the build keys' sampling seeds, the estimated seed
// sets and the update batches.
var quotas = []float64{0.02, 0.03, 0.04, 0.05}

var warmKeys = []int64{warmSeedA, warmSeedB}

// cover is the k-th cover spec of a rotation over P2/P6 × quotas.
func (s *script) cover(k int, seed int64, eval string) server.SolveRequest {
	r := s.selectReq([]string{"p2", "p6"}[k%2], seed, eval)
	r.Quota = quotas[(k/2)%len(quotas)]
	return r
}

// budget is the k-th budget spec of a rotation over P1/P4 × six budgets
// up to maxBudget.
func (s *script) budget(k int, seed int64, eval string) server.SolveRequest {
	r := s.selectReq([]string{"p1", "p4"}[k%2], seed, eval)
	r.Budget = s.p.maxBudget * (1 + (k/2)%6) / 6
	return r
}

func (s *script) seedSet(rng *rand.Rand) []graph.NodeID {
	out := make([]graph.NodeID, 10)
	for i := range out {
		out[i] = graph.NodeID(rng.IntN(s.n))
	}
	return out
}

// prewarm lists the set-up requests, repeated untimed at the start of
// every round: the warm keys' sketches are loaded and their budget keys'
// longest prefixes (maxBudget) memoized, so warm and fresh budget
// requests replay them; the refresh key's sketch, on the dynamic graph at
// its current version, is loaded as the next refresh's source.
func (s *script) prewarm() []*request {
	var out []*request
	for _, seed := range warmKeys {
		for _, prob := range []string{"p1", "p4"} {
			r := s.selectReq(prob, seed, "sample")
			r.Budget = s.p.maxBudget
			out = append(out, newSelect("prewarm", r))
		}
	}
	r := s.refresh()
	return append(out, newSelect("prewarm", r))
}

// warmScript is the warm cycle: budget replays of the memoized prefixes,
// on-sample estimates, covers with varied quota (CELF runs on each) and
// batches of 8 mixed specs (4 of them covers), in fixed shares 5:2:1:2.
// The shares keep each reported percentile well inside one request
// type's mode. Replays and estimates (~0.3 ms) are 7/10, so p50 falls at
// their 71st percentile and follows the request path, prefix replay and
// Evaluate on the sketch; batches (~23 ms) are the slowest 2/10, so p90
// falls at their median and follows the planner and CELF. With covers
// at 5/10, p50 sat among them and a tenfold slower replay moved no
// percentile.
func (s *script) warmScript() []*request {
	rng := s.rng(1)
	keys := warmKeys
	pattern := []string{"budget", "estimate", "budget", "batch", "budget", "cover", "budget", "estimate", "budget", "batch"}
	var out []*request
	var covers, budgets, estimates, batches int
	for rep := 0; rep < 16; rep++ {
		for _, kind := range pattern {
			switch kind {
			case "cover":
				out = append(out, newSelect(classWarm, s.cover(covers, keys[covers/8%2], "sample")))
				covers++
			case "budget":
				out = append(out, newSelect(classWarm, s.budget(budgets, keys[budgets/12%2], "sample")))
				budgets++
			case "estimate":
				out = append(out, newEstimate(classWarm, server.EstimateRequest{
					Graph: graphName, Seeds: s.seedSet(rng), Tau: tau(20), Engine: "ris",
					RISPerGroup: s.p.pool, Seed: keys[estimates%2], Eval: "sample",
				}))
				estimates++
			case "batch":
				var b server.BatchSolveRequest
				for i := 0; i < 8; i++ {
					k, key := 4*batches+i/2, keys[(batches+i)%2]
					if i%2 == 0 {
						b.Requests = append(b.Requests, s.budget(k, key, "sample"))
					} else {
						b.Requests = append(b.Requests, s.cover(k, key, "sample"))
					}
				}
				out = append(out, &request{class: classWarm, path: "/v1/select/batch", body: mustJSON(b), batch: &b})
				batches++
			}
		}
	}
	return out
}

// freshScript alternates budget selects and estimates, both reported on
// evalSamples fresh worlds over the pre-warmed sketches.
func (s *script) freshScript() []*request {
	rng := s.rng(2)
	keys := warmKeys
	var out []*request
	for i := 0; i < 24; i++ {
		key := keys[i/2%2]
		if i%2 == 0 {
			r := s.budget(i/2, key, "fresh")
			r.EvalSamples = s.p.evalSamples
			out = append(out, newSelect(classFresh, r))
			continue
		}
		// An estimate's fresh report draws `samples` worlds.
		out = append(out, newEstimate(classFresh, server.EstimateRequest{
			Graph: graphName, Seeds: s.seedSet(rng), Tau: tau(20), Engine: "ris",
			Samples: s.p.evalSamples, RISPerGroup: s.p.pool, Seed: key, Eval: "fresh",
		}))
	}
	return out
}

// buildRequest is the i-th build request: a sampling seed no earlier
// request used, so the daemon must build its sketch. All are P4
// (FairTCIM-Budget) with rotating budget: mixing in problems whose CELF
// runs half as long would split the class into two latency modes.
func (s *script) buildRequest(i int) *request {
	seed := buildSeedBase*(1+int64(s.seed%1_000_000)) + int64(i)
	return newSelect(classBuild, s.budget(2*i+1, seed, "sample"))
}

// reloadRequest revisits a built key: the same body under the reload class.
func reloadRequest(built *request) *request {
	r := *built
	r.class = classReload
	return &r
}

// refresh is the select issued on the dynamic graph after every update:
// one P4 key, so each update cycle stays short and the class has one
// latency mode.
func (s *script) refresh() server.SolveRequest {
	r := s.selectReq("p4", refreshSeed, "sample")
	r.Graph = dynGraphName
	r.Budget = 10
	return r
}

// arcState tracks the served graph's arcs so each update batch really
// changes it: adds name absent arcs, removals and re-weights present ones.
type arcState struct {
	rng   *rand.Rand
	n     int
	arcs  []graph.Arc
	index map[graph.Arc]int
	prob  map[graph.Arc]float64
}

func newArcState(g *graph.Graph, seed uint64) *arcState {
	a := &arcState{
		rng:   rand.New(rand.NewPCG(seed, 4)),
		n:     g.N(),
		index: make(map[graph.Arc]int, g.M()),
		prob:  make(map[graph.Arc]float64, g.M()),
	}
	for v := 0; v < g.N(); v++ {
		targets, probs := g.OutEdges(graph.NodeID(v))
		for i, to := range targets {
			arc := graph.Arc{From: graph.NodeID(v), To: to}
			a.index[arc] = len(a.arcs)
			a.arcs = append(a.arcs, arc)
			a.prob[arc] = probs[i]
		}
	}
	return a
}

func (a *arcState) remove(arc graph.Arc) {
	i := a.index[arc]
	last := a.arcs[len(a.arcs)-1]
	a.arcs[i] = last
	a.index[last] = i
	a.arcs = a.arcs[:len(a.arcs)-1]
	delete(a.index, arc)
	delete(a.prob, arc)
}

// Arc changes per update batch.
const (
	updAdds      = 2
	updRemoves   = 2
	updReweights = 2
)

// next draws one batch of updAdds+updRemoves+updReweights distinct arc
// changes against the current arcs and applies it to the tracked state.
func (a *arcState) next(expect uint64) *request {
	used := map[graph.Arc]bool{}
	var edges []graph.EdgeDelta
	for len(edges) < updAdds {
		arc := graph.Arc{From: graph.NodeID(a.rng.IntN(a.n)), To: graph.NodeID(a.rng.IntN(a.n))}
		if _, present := a.index[arc]; present || arc.From == arc.To || used[arc] {
			continue
		}
		used[arc] = true
		edges = append(edges, graph.EdgeDelta{From: arc.From, To: arc.To, P: 0.05})
	}
	pick := func() graph.Arc {
		for {
			arc := a.arcs[a.rng.IntN(len(a.arcs))]
			if !used[arc] {
				used[arc] = true
				return arc
			}
		}
	}
	for i := 0; i < updRemoves; i++ {
		arc := pick()
		edges = append(edges, graph.EdgeDelta{From: arc.From, To: arc.To, Remove: true})
	}
	for i := 0; i < updReweights; i++ {
		arc := pick()
		p := 0.08
		if a.prob[arc] == p {
			p = 0.03
		}
		edges = append(edges, graph.EdgeDelta{From: arc.From, To: arc.To, P: p})
	}
	for _, e := range edges {
		arc := graph.Arc{From: e.From, To: e.To}
		switch {
		case e.Remove:
			a.remove(arc)
		case a.prob[arc] == 0:
			a.index[arc] = len(a.arcs)
			a.arcs = append(a.arcs, arc)
			a.prob[arc] = e.P
		default:
			a.prob[arc] = e.P
		}
	}
	u := server.GraphUpdateRequest{ExpectVersion: expect, Edges: edges}
	return &request{class: classUpdate, path: "/v1/graphs/" + dynGraphName + "/updates", body: mustJSON(u), upd: &u}
}

func validWorkload(name string) error {
	if _, ok := workloads[name]; !ok {
		return fmt.Errorf("unknown workload %q (want warm-solve, cold-reload, update-refresh or fresh-eval)", name)
	}
	return nil
}
