// Package influence implements the time-critical influence utility
// fτ(S;Y,G) of Eq. 1 and its group-aware estimation by forward Monte Carlo.
//
// One Evaluator averages over R sampled worlds (see package cascade). For
// every world it keeps the current activation time of every node under
// the growing seed set, plus per-group utility sums. It varies along two
// axes, both fixed at construction:
//
//   - Traversal. Unit-delay live-edge worlds ([]*cascade.World, the IC
//     and LT models) are searched by a τ-bounded BFS; weighted worlds
//     ([]*cascade.WeightedWorld, delayed diffusion such as IC-M) by a
//     τ-bounded Dijkstra. Either search starts at a candidate and is pruned
//     at nodes whose current activation time is already no worse, so a
//     query costs only the part of each world the candidate improves.
//   - Arrival-time utility u(d), the value of a node first reached at time
//     d. The paper's deadline utility is u(d) = 1[d ≤ τ]; the
//     time-discounted utility its conclusion names as future work is
//     u(d) = γ^d·1[d ≤ τ], so being informed earlier is worth strictly
//     more. When a search lowers a node's time from d_old to d_new it
//     credits u(d_new) − u(d_old) to the node's group; under the 0/1
//     utility that is exactly 1 for a newly reached node and 0 otherwise.
//
// Per world the group utility Σ_v u(d(S,v)) has each node's term equal to
// the max of u(d(s,v)) over seeds s, a facility-location function of S, so
// on a fixed world set the estimate is exactly monotone and submodular and
// all greedy machinery and guarantees carry over.
package influence

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"fairtcim/internal/cascade"
	"fairtcim/internal/graph"
)

// unreached is the internal "activation time" of an inactive node. It must
// compare greater than every valid deadline, including cascade.NoDeadline,
// so that inactive nodes never count as within-deadline. Search times never
// reach it: expansion stops at d == tau <= NoDeadline < unreached.
const unreached int32 = math.MaxInt32

// powTableMax bounds the precomputed γ^d table; deeper activation times
// fall back to math.Pow (they are vanishingly rare: 0.99^4096 ≈ 1e-18).
const powTableMax = 4096

// Evaluator estimates fτ(S;V_i,G) for all groups i simultaneously over a
// fixed set of worlds, with incremental seed-set growth.
//
// Evaluator methods are not safe for concurrent use except InitialGains.
type Evaluator struct {
	g *graph.Graph
	// Exactly one of unit and weighted is set; it picks the traversal.
	unit     []*cascade.World
	weighted []*cascade.WeightedWorld
	tau      int32
	gamma    float64   // discount factor; 1 is the 0/1 deadline utility
	pow      []float64 // pow[d] = γ^d, d ≤ min(τ, powTableMax-1)

	dist  [][]int32 // dist[w][v]: activation time of v in world w, or unreached
	sums  []float64 // per group: Σ_w Σ_v u(dist[w][v])
	seeds []graph.NodeID

	scratch *scratch // default scratch for the non-concurrent API
}

// scratch holds per-query search state so concurrent read-only gain
// queries do not contend.
type scratch struct {
	tent  []int32 // tentative time per node
	stamp []int64 // epoch marking valid tent entries; −epoch once settled
	epoch int64
	queue []graph.NodeID // improved nodes in visit order (the BFS frontier)
	heap  cascade.TimeHeap
	delta []float64 // per-group accumulator
}

// NewEvaluator builds a 0/1 deadline evaluator over unit-delay worlds.
// tau must be >= 0 (use cascade.NoDeadline for τ = ∞); at least one world
// is required.
func NewEvaluator(g *graph.Graph, worlds []*cascade.World, tau int32) (*Evaluator, error) {
	if err := checkWorlds(g, worlds, tau); err != nil {
		return nil, err
	}
	e := newEvaluator(g, len(worlds), tau, 1)
	e.unit = worlds
	return e, nil
}

// NewDelayedEvaluator builds a 0/1 deadline evaluator over weighted worlds
// (delayed diffusion, IC-M and friends): a node's activation time is its
// weighted shortest distance from the seed set.
func NewDelayedEvaluator(g *graph.Graph, worlds []*cascade.WeightedWorld, tau int32) (*Evaluator, error) {
	if err := checkWorlds(g, worlds, tau); err != nil {
		return nil, err
	}
	e := newEvaluator(g, len(worlds), tau, 1)
	e.weighted = worlds
	return e, nil
}

// NewDiscountedEvaluator builds a time-discounted evaluator over
// unit-delay worlds: a node activated at time d ≤ τ contributes γ^d instead
// of 1 (set τ to cascade.NoDeadline for pure discounting). gamma must lie
// in (0, 1).
func NewDiscountedEvaluator(g *graph.Graph, worlds []*cascade.World, tau int32, gamma float64) (*Evaluator, error) {
	if err := checkWorlds(g, worlds, tau); err != nil {
		return nil, err
	}
	if gamma <= 0 || gamma >= 1 {
		return nil, fmt.Errorf("influence: discount factor %v outside (0,1)", gamma)
	}
	e := newEvaluator(g, len(worlds), tau, gamma)
	e.unit = worlds
	return e, nil
}

// checkWorlds validates the arguments every constructor shares.
func checkWorlds[W interface{ N() int }](g *graph.Graph, worlds []W, tau int32) error {
	if len(worlds) == 0 {
		return fmt.Errorf("influence: need at least one world")
	}
	if tau < 0 {
		return fmt.Errorf("influence: negative deadline %d", tau)
	}
	for i, w := range worlds {
		if w.N() != g.N() {
			return fmt.Errorf("influence: world %d has %d nodes, graph has %d", i, w.N(), g.N())
		}
	}
	return nil
}

// newEvaluator allocates the per-world state for r worlds; the caller sets
// the world slice.
func newEvaluator(g *graph.Graph, r int, tau int32, gamma float64) *Evaluator {
	e := &Evaluator{g: g, tau: tau, gamma: gamma}
	e.pow = make([]float64, min(int64(tau)+1, powTableMax))
	e.pow[0] = 1
	for d := 1; d < len(e.pow); d++ {
		e.pow[d] = e.pow[d-1] * gamma
	}
	e.dist = make([][]int32, r)
	for w := range e.dist {
		e.dist[w] = make([]int32, g.N())
	}
	e.sums = make([]float64, g.NumGroups())
	e.scratch = e.newScratch()
	e.Reset()
	return e
}

func (e *Evaluator) newScratch() *scratch {
	return &scratch{
		tent:  make([]int32, e.g.N()),
		stamp: make([]int64, e.g.N()),
		delta: make([]float64, e.g.NumGroups()),
	}
}

// utility is the arrival-time value u(d): γ^d within the deadline, 0
// beyond it (including unreached). It inlines into the credit loop;
// farUtility is kept out of line so that it does, and only times past the
// γ^d table pay for its call.
func (e *Evaluator) utility(d int32) float64 {
	if d > e.tau {
		return 0
	}
	if int(d) < len(e.pow) {
		return e.pow[d]
	}
	return e.farUtility(d)
}

//go:noinline
func (e *Evaluator) farUtility(d int32) float64 { return math.Pow(e.gamma, float64(d)) }

// SampleSize returns the number of Monte-Carlo worlds (the
// estimator.Estimator sample-budget accessor).
func (e *Evaluator) SampleSize() int { return len(e.dist) }

// Graph returns the underlying graph.
func (e *Evaluator) Graph() *graph.Graph { return e.g }

// Seeds returns the current seed set (shared slice; do not modify).
func (e *Evaluator) Seeds() []graph.NodeID { return e.seeds }

// GroupUtilities returns the current estimates of fτ(S;V_i,G) for every
// group i: the expected utility of group members reached by the seed set.
func (e *Evaluator) GroupUtilities() []float64 {
	out := make([]float64, len(e.sums))
	r := float64(len(e.dist))
	for i, s := range e.sums {
		out[i] = s / r
	}
	return out
}

// NormGroupUtilities returns fτ(S;V_i,G)/|V_i| for every group, the
// normalized per-group utilities all figures report.
func (e *Evaluator) NormGroupUtilities() []float64 {
	out := e.GroupUtilities()
	for i := range out {
		out[i] /= float64(e.g.GroupSize(i))
	}
	return out
}

// TotalUtility returns the current estimate of fτ(S;V,G).
func (e *Evaluator) TotalUtility() float64 {
	total := 0.0
	r := float64(len(e.dist))
	for _, s := range e.sums {
		total += s / r
	}
	return total
}

// GainPerGroup returns the expected per-group increase of fτ if v were
// added to the seed set, without modifying state. The returned slice is
// reused across calls; copy it if you need to keep it.
func (e *Evaluator) GainPerGroup(v graph.NodeID) []float64 {
	return e.gainPerGroupInto(e.scratch, v)
}

// gainPerGroupInto is GainPerGroup with caller-provided scratch; queries
// with distinct scratch values may run concurrently (the evaluator state is
// only read).
func (e *Evaluator) gainPerGroupInto(s *scratch, v graph.NodeID) []float64 {
	e.search(s, v, false)
	r := float64(len(e.dist))
	for i := range s.delta {
		s.delta[i] /= r
	}
	return s.delta
}

// Gain returns the expected total-utility increase of adding v.
func (e *Evaluator) Gain(v graph.NodeID) float64 {
	total := 0.0
	for _, d := range e.GainPerGroup(v) {
		total += d
	}
	return total
}

// Add commits v to the seed set, updating all worlds.
func (e *Evaluator) Add(v graph.NodeID) {
	e.search(e.scratch, v, true)
	e.seeds = append(e.seeds, v)
}

// search runs the improvement search from v in every world, accumulating
// per-group utility gains into s.delta. When commit is true it also writes
// the improved activation times and updates sums.
func (e *Evaluator) search(s *scratch, v graph.NodeID, commit bool) {
	for i := range s.delta {
		s.delta[i] = 0
	}
	for w, dist := range e.dist {
		if dist[v] == 0 {
			continue // already a seed in this world
		}
		if e.weighted != nil {
			e.dijkstra(s, e.weighted[w], dist, v)
		} else {
			e.bfs(s, e.unit[w], dist, v)
		}
		e.credit(s, dist, commit)
	}
}

// credit walks the nodes the last traversal improved, in visit order, and
// adds u(d_new) − u(d_old) to each one's group; on commit it also writes
// the new times. It is the only place the arrival-time utility is applied.
func (e *Evaluator) credit(s *scratch, dist []int32, commit bool) {
	for _, u := range s.queue {
		d := s.tent[u]
		gain := e.utility(d) - e.utility(dist[u])
		grp := e.g.Group(u)
		s.delta[grp] += gain
		if commit {
			e.sums[grp] += gain
			dist[u] = d
		}
	}
}

// bfs is the τ-bounded improvement BFS from v in one unit-delay world,
// pruned at nodes whose committed time dist is already no worse. It leaves
// the improved nodes in s.queue with their new times in s.tent.
func (e *Evaluator) bfs(s *scratch, world *cascade.World, dist []int32, v graph.NodeID) {
	tau := e.tau
	s.epoch++
	s.queue = s.queue[:0]
	visit := func(u graph.NodeID, d int32) {
		s.tent[u] = d
		s.stamp[u] = s.epoch
		s.queue = append(s.queue, u)
	}
	visit(v, 0)
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		d := s.tent[u]
		if d >= tau {
			continue
		}
		nd := d + 1
		for _, to := range world.Out(u) {
			if s.stamp[to] == s.epoch {
				continue // BFS order guarantees first visit is shortest
			}
			if nd >= dist[to] {
				continue // no improvement; existing propagation already covers it
			}
			visit(to, nd)
		}
	}
}

// dijkstra is the τ-bounded improvement Dijkstra from v in one weighted
// world, pruned like bfs. It leaves the improved nodes in s.queue, in
// settle order, with their new times in s.tent.
func (e *Evaluator) dijkstra(s *scratch, world *cascade.WeightedWorld, dist []int32, v graph.NodeID) {
	tau := e.tau
	s.epoch++
	s.queue = s.queue[:0]
	s.heap = s.heap[:0]
	relax := func(u graph.NodeID, d int32) {
		s.tent[u] = d
		s.stamp[u] = s.epoch
		s.heap.Push(cascade.TimedNode{Node: u, D: d})
	}
	relax(v, 0)
	for len(s.heap) > 0 {
		it := s.heap.Pop()
		u, d := it.Node, it.D
		if s.stamp[u] != s.epoch || s.tent[u] != d {
			continue // stale
		}
		s.queue = append(s.queue, u)
		s.stamp[u] = -s.epoch // settled marker: never re-relax this query
		targets, delays := world.Out(u)
		for i, to := range targets {
			nd := d + delays[i]
			if nd > tau {
				continue
			}
			if nd >= dist[to] {
				continue // committed time already at least as good
			}
			if s.stamp[to] == -s.epoch {
				continue // settled this query
			}
			if s.stamp[to] == s.epoch && s.tent[to] <= nd {
				continue // better tentative already queued
			}
			relax(to, nd)
		}
	}
}

// Reset clears the seed set and all per-world state.
func (e *Evaluator) Reset() {
	for _, d := range e.dist {
		for v := range d {
			d[v] = unreached
		}
	}
	for i := range e.sums {
		e.sums[i] = 0
	}
	e.seeds = e.seeds[:0]
}

// InitialGains computes GainPerGroup for every candidate in parallel and
// returns one copied slice per candidate, in candidate order. It only
// reads evaluator state, so it is safe before/between Adds. parallelism
// <= 0 means GOMAXPROCS. This accelerates the expensive first CELF pass.
func (e *Evaluator) InitialGains(candidates []graph.NodeID, parallelism int) [][]float64 {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	parallelism = max(1, min(parallelism, len(candidates)))
	out := make([][]float64, len(candidates))
	var wg sync.WaitGroup
	work := make(chan int, len(candidates))
	for i := range candidates {
		work <- i
	}
	close(work)
	for p := 0; p < parallelism; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := e.newScratch()
			for i := range work {
				g := e.gainPerGroupInto(s, candidates[i])
				out[i] = append([]float64(nil), g...)
			}
		}()
	}
	wg.Wait()
	return out
}

// Disparity returns the paper's unfairness measure (Eq. 2): the maximum
// absolute pairwise difference between normalized group utilities.
func Disparity(normUtilities []float64) float64 {
	worst := 0.0
	for i := 0; i < len(normUtilities); i++ {
		for j := i + 1; j < len(normUtilities); j++ {
			if d := math.Abs(normUtilities[i] - normUtilities[j]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// Estimate evaluates a fixed seed set on freshly sampled worlds — the
// unbiased final-report path (re-using optimization worlds overstates
// utility through the optimizer's curse). It returns per-group utilities.
func Estimate(g *graph.Graph, seeds []graph.NodeID, tau int32, model cascade.Model, samples int, seed int64) ([]float64, error) {
	if samples <= 0 {
		return nil, errNoSamples
	}
	e, err := NewEvaluator(g, cascade.SampleWorlds(g, model, samples, seed, 0), tau)
	return utilitiesOf(e, err, seeds)
}

// EstimateDelayed is Estimate under delayed diffusion: it evaluates the
// seed set on fresh weighted worlds.
func EstimateDelayed(g *graph.Graph, seeds []graph.NodeID, tau int32, delay cascade.DelayDist, samples int, seed int64) ([]float64, error) {
	if samples <= 0 {
		return nil, errNoSamples
	}
	e, err := NewDelayedEvaluator(g, cascade.SampleDelayedWorlds(g, delay, samples, seed, 0), tau)
	return utilitiesOf(e, err, seeds)
}

// EstimateDiscounted is Estimate under the time-discounted utility.
func EstimateDiscounted(g *graph.Graph, seeds []graph.NodeID, tau int32, gamma float64, model cascade.Model, samples int, seed int64) ([]float64, error) {
	if samples <= 0 {
		return nil, errNoSamples
	}
	e, err := NewDiscountedEvaluator(g, cascade.SampleWorlds(g, model, samples, seed, 0), tau, gamma)
	return utilitiesOf(e, err, seeds)
}

var errNoSamples = errors.New("influence: need positive sample count")

// utilitiesOf adds seeds to a freshly built evaluator and returns its
// per-group utilities, passing a construction error through.
func utilitiesOf(e *Evaluator, err error, seeds []graph.NodeID) ([]float64, error) {
	if err != nil {
		return nil, err
	}
	for _, v := range seeds {
		e.Add(v)
	}
	return e.GroupUtilities(), nil
}
