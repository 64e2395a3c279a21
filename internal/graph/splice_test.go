package graph_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"testing"

	"fairtcim/internal/generate"
	"fairtcim/internal/graph"
)

// oracleApply is the reference ApplyDelta: it re-derives the post-delta
// edge list with a map, validating by the same rules, and rebuilds the
// whole snapshot through Builder. Edges are fed in shuffled order, so the
// rebuild also exercises Build's per-row sort.
func oracleApply(g *graph.Graph, d graph.Delta) (*graph.Graph, *graph.DeltaResult, error) {
	if d.Empty() {
		return nil, nil, fmt.Errorf("empty delta")
	}
	n := g.N()
	changes := map[graph.Arc]graph.EdgeDelta{}
	for _, e := range d.Edges {
		if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
			return nil, nil, fmt.Errorf("edge out of range")
		}
		if e.Remove && e.P != 0 {
			return nil, nil, fmt.Errorf("removal with p")
		}
		if !e.Remove && !(e.P > 0 && e.P <= 1) {
			return nil, nil, fmt.Errorf("p outside (0,1]")
		}
		a := graph.Arc{From: e.From, To: e.To}
		if _, dup := changes[a]; dup {
			return nil, nil, fmt.Errorf("duplicate arc")
		}
		changes[a] = e
	}

	edges := map[graph.Arc]float64{}
	for u := 0; u < n; u++ {
		ts, ps := g.OutEdges(graph.NodeID(u))
		for i, v := range ts {
			edges[graph.Arc{From: graph.NodeID(u), To: v}] = ps[i]
		}
	}
	res := &graph.DeltaResult{}
	for a, ch := range changes {
		old, present := edges[a]
		switch {
		case ch.Remove && !present:
			return nil, nil, fmt.Errorf("removal of absent arc")
		case ch.Remove:
			delete(edges, a)
			res.EdgesRemoved++
		case !present:
			edges[a] = ch.P
			res.EdgesAdded++
		case old != ch.P:
			edges[a] = ch.P
			res.EdgesUpdated++
		default:
			continue
		}
		res.TouchedArcs = append(res.TouchedArcs, a)
	}

	labels := make([]int, n)
	for v := range labels {
		labels[v] = g.Group(graph.NodeID(v))
	}
	for _, gd := range d.Groups {
		if gd.Node < 0 || int(gd.Node) >= n || gd.Group < 0 {
			return nil, nil, fmt.Errorf("bad group move")
		}
		if labels[gd.Node] != gd.Group {
			labels[gd.Node] = gd.Group
			res.GroupsChanged++
		}
	}

	arcs := make([]graph.Arc, 0, len(edges))
	for a := range edges {
		arcs = append(arcs, a)
	}
	slices.SortFunc(arcs, compareArcs)
	rand.New(rand.NewPCG(uint64(len(arcs)), 0)).Shuffle(len(arcs), func(i, j int) { arcs[i], arcs[j] = arcs[j], arcs[i] })
	b := graph.NewBuilder(n)
	b.SetGroups(labels)
	for _, a := range arcs {
		b.AddEdge(a.From, a.To, edges[a])
	}
	out, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	slices.SortFunc(res.TouchedArcs, compareArcs)
	for _, a := range res.TouchedArcs {
		res.TouchedHeads = append(res.TouchedHeads, a.To)
	}
	slices.Sort(res.TouchedHeads)
	res.TouchedHeads = slices.Compact(res.TouchedHeads)
	return out, res, nil
}

func compareArcs(a, b graph.Arc) int {
	if a.From != b.From {
		return int(a.From) - int(b.From)
	}
	return int(a.To) - int(b.To)
}

// snapshot is every observable array of a Graph, floats as raw bits, so
// two snapshots compare bit for bit with reflect.DeepEqual.
type snapshot struct {
	OutOffsets, InOffsets []int32
	OutTargets, InTargets []graph.NodeID
	OutProbs, InProbs     []uint64
	OutThresh, InThresh   []uint64
	Groups                []int
	GroupSizes            []int
	GroupMembers          [][]graph.NodeID
	SumProbs              uint64
}

func bits(ps []float64) []uint64 {
	out := make([]uint64, len(ps))
	for i, p := range ps {
		out[i] = math.Float64bits(p)
	}
	return out
}

func snap(g *graph.Graph) snapshot {
	var s snapshot
	var op, ip []float64
	s.OutOffsets, s.OutTargets, op = g.OutCSR()
	s.InOffsets, s.InTargets, ip = g.InCSR()
	s.OutOffsets = slices.Clone(s.OutOffsets)
	s.InOffsets = slices.Clone(s.InOffsets)
	s.OutTargets = slices.Clone(s.OutTargets)
	s.InTargets = slices.Clone(s.InTargets)
	s.OutProbs, s.InProbs = bits(op), bits(ip)
	s.OutThresh = slices.Clone(g.OutThresholds())
	s.InThresh = slices.Clone(g.InThresholds())
	for v := 0; v < g.N(); v++ {
		s.Groups = append(s.Groups, g.Group(graph.NodeID(v)))
	}
	s.GroupSizes = slices.Clone(g.GroupSizes())
	for i := 0; i < g.NumGroups(); i++ {
		s.GroupMembers = append(s.GroupMembers, slices.Clone(g.GroupMembers(i)))
	}
	s.SumProbs = math.Float64bits(g.ExpectedLiveEdges())
	return s
}

// checkAgainstOracle applies d to g both ways and requires the same
// verdict and, when accepted, bit-identical snapshots and results. g must
// be unchanged either way.
func checkAgainstOracle(t *testing.T, g *graph.Graph, d graph.Delta) *graph.Graph {
	t.Helper()
	before := snap(g)
	got, gotRes, err := g.ApplyDelta(d)
	want, wantRes, wantErr := oracleApply(g, d)
	if !reflect.DeepEqual(snap(g), before) {
		t.Fatalf("ApplyDelta(%+v) modified its receiver", d)
	}
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("ApplyDelta(%+v): err = %v, oracle err = %v", d, err, wantErr)
	}
	if err != nil {
		return g
	}
	if gs, ws := snap(got), snap(want); !reflect.DeepEqual(gs, ws) {
		t.Fatalf("ApplyDelta(%+v) snapshot differs from rebuild:\n got %+v\nwant %+v", d, gs, ws)
	}
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatalf("ApplyDelta(%+v) result = %+v, want %+v", d, gotRes, wantRes)
	}
	return got
}

// randomDelta draws a batch of adds, removals, re-weights, no-op
// restatements and group moves against g.
func randomDelta(rng *rand.Rand, g *graph.Graph) graph.Delta {
	n := g.N()
	var d graph.Delta
	used := map[graph.Arc]bool{}
	pick := func(a graph.Arc) bool {
		if used[a] {
			return false
		}
		used[a] = true
		return true
	}
	probs := []float64{0.05, 0.1, 0.25, 0.5, 1}
	for i, adds := 0, rng.IntN(6); i < adds; i++ {
		a := graph.Arc{From: graph.NodeID(rng.IntN(n)), To: graph.NodeID(rng.IntN(n))}
		if _, present := edgeProb(g, a); !present && pick(a) {
			d.Edges = append(d.Edges, graph.EdgeDelta{From: a.From, To: a.To, P: probs[rng.IntN(len(probs))]})
		}
	}
	for i, changes := 0, rng.IntN(8); i < changes && g.M() > 0; i++ {
		a := randomArc(rng, g)
		if !pick(a) {
			continue
		}
		old, _ := edgeProb(g, a)
		switch rng.IntN(3) {
		case 0:
			d.Edges = append(d.Edges, graph.EdgeDelta{From: a.From, To: a.To, Remove: true})
		case 1:
			d.Edges = append(d.Edges, graph.EdgeDelta{From: a.From, To: a.To, P: probs[rng.IntN(len(probs))]})
		default:
			d.Edges = append(d.Edges, graph.EdgeDelta{From: a.From, To: a.To, P: old})
		}
	}
	for i, moves := 0, rng.IntN(3); i < moves; i++ {
		d.Groups = append(d.Groups, graph.GroupDelta{Node: graph.NodeID(rng.IntN(n)), Group: rng.IntN(g.NumGroups())})
	}
	if d.Empty() {
		a := randomArc(rng, g)
		d.Edges = append(d.Edges, graph.EdgeDelta{From: a.From, To: a.To, Remove: true})
	}
	return d
}

func randomArc(rng *rand.Rand, g *graph.Graph) graph.Arc {
	offsets, targets, _ := g.OutCSR()
	i := int32(rng.IntN(g.M()))
	u, _ := slices.BinarySearch(offsets, i+1)
	return graph.Arc{From: graph.NodeID(u - 1), To: targets[i]}
}

func edgeProb(g *graph.Graph, a graph.Arc) (float64, bool) {
	ts, ps := g.OutEdges(a.From)
	if i, ok := slices.BinarySearch(ts, a.To); ok {
		return ps[i], true
	}
	return 0, false
}

// TestApplyDeltaSpliceParity chains 200 random batches on a generated SBM
// graph and checks every resulting snapshot field by field against the
// Builder rebuild.
func TestApplyDeltaSpliceParity(t *testing.T) {
	g, err := generate.SBM(generate.SBMConfig{
		N: 300, Fractions: []float64{0.5, 0.3, 0.2}, PHom: 0.04, PHet: 0.01, PActivate: 0.1, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(14, 1))
	for i := 0; i < 200; i++ {
		g = checkAgainstOracle(t, g, randomDelta(rng, g))
	}
}

// TestApplyDeltaSharesUnchangedParts: a group-only batch keeps the
// predecessor's adjacency arrays, an edge-only batch its group index.
func TestApplyDeltaSharesUnchangedParts(t *testing.T) {
	b := graph.NewBuilder(4)
	b.SetGroups([]int{0, 0, 1, 1})
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(1, 2, 0.5)
	b.AddEdge(2, 3, 0.5)
	g := b.MustBuild()

	regrouped, _, err := g.ApplyDelta(graph.Delta{Groups: []graph.GroupDelta{{Node: 1, Group: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	_, gt, _ := g.OutCSR()
	_, rt, _ := regrouped.OutCSR()
	if &gt[0] != &rt[0] || &g.InThresholds()[0] != &regrouped.InThresholds()[0] {
		t.Error("group-only batch copied the adjacency")
	}

	rewired, _, err := g.ApplyDelta(graph.Delta{Edges: []graph.EdgeDelta{{From: 3, To: 0, P: 0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	if &g.GroupMembers(0)[0] != &rewired.GroupMembers(0)[0] {
		t.Error("edge-only batch copied the group index")
	}
}

// FuzzApplyDelta drives ApplyDelta across its trust boundary: arbitrary
// endpoints (out of range included), probabilities outside (0,1] and
// NaN, duplicate arcs, removals of absent arcs and group moves that
// leave labels sparse. Each 4-byte record is one change.
func FuzzApplyDelta(f *testing.F) {
	b := graph.NewBuilder(8)
	b.SetGroups([]int{0, 0, 0, 1, 1, 1, 2, 2})
	for _, e := range [][3]int{
		{0, 1, 5}, {0, 2, 3}, {1, 2, 7}, {2, 3, 1}, {3, 4, 5}, {4, 5, 5}, {5, 6, 2},
		{6, 7, 9}, {7, 0, 4}, {1, 0, 5}, {3, 1, 6}, {4, 4, 1}, {6, 2, 8}, {5, 3, 3},
	} {
		b.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]), float64(e[2])/10)
	}
	g := b.MustBuild()
	probs := []float64{0.5, 0.3, 1, 0.05, 0, -0.5, 1.5, math.NaN(), math.Inf(1), 0.7}

	f.Add([]byte{0, 1, 3, 0, 1, 2, 4, 0, 0, 3, 4, 1}) // add, remove, re-weight
	f.Add([]byte{0, 1, 2, 0, 0, 1, 2, 1})             // duplicate arc
	f.Add([]byte{1, 1, 7, 0})                         // remove absent arc
	f.Add([]byte{0, 1, 12, 0, 0, 0, 1, 7})            // out of range, NaN
	f.Add([]byte{3, 1, 0, 4, 3, 7, 0, 1, 3, 8, 0, 2}) // sparse and valid group moves
	f.Add([]byte{2, 1, 2, 1, 0, 4, 4, 9, 3, 0, 0, 0}) // removal with p, self loop
	f.Fuzz(func(t *testing.T, data []byte) {
		var d graph.Delta
		for len(data) >= 4 && len(d.Edges)+len(d.Groups) < 32 {
			op, x, y, z := data[0]%4, graph.NodeID(data[1]%11)-1, graph.NodeID(data[2]%11)-1, data[3]
			data = data[4:]
			switch op {
			case 0:
				d.Edges = append(d.Edges, graph.EdgeDelta{From: x, To: y, P: probs[int(z)%len(probs)]})
			case 1:
				d.Edges = append(d.Edges, graph.EdgeDelta{From: x, To: y, Remove: true})
			case 2:
				d.Edges = append(d.Edges, graph.EdgeDelta{From: x, To: y, P: probs[int(z)%len(probs)], Remove: true})
			default:
				d.Groups = append(d.Groups, graph.GroupDelta{Node: x, Group: int(z%6) - 1})
			}
		}
		checkAgainstOracle(t, g, d)
	})
}

// twoBlock20k is the benchmark's serving graph: the §6.1 two-block SBM at
// 20,000 nodes with edge probabilities scaled by 500/n.
var twoBlock20k = sync.OnceValues(func() (*graph.Graph, error) {
	return twoBlock(20000)
})

func twoBlock(n int) (*graph.Graph, error) {
	cfg := generate.DefaultTwoBlock(1)
	scale := 500 / float64(n)
	cfg.N, cfg.PHom, cfg.PHet = n, cfg.PHom*scale, cfg.PHet*scale
	return generate.TwoBlock(cfg)
}

// updateBatch is one update-refresh style batch: two additions, two
// removals and two re-weights.
func updateBatch(g *graph.Graph) graph.Delta {
	rng := rand.New(rand.NewPCG(3, 3))
	var d graph.Delta
	used := map[graph.Arc]bool{}
	for len(d.Edges) < 2 {
		a := graph.Arc{From: graph.NodeID(rng.IntN(g.N())), To: graph.NodeID(rng.IntN(g.N()))}
		if _, present := edgeProb(g, a); !present && !used[a] {
			used[a] = true
			d.Edges = append(d.Edges, graph.EdgeDelta{From: a.From, To: a.To, P: 0.05})
		}
	}
	for len(d.Edges) < 6 {
		a := randomArc(rng, g)
		if used[a] {
			continue
		}
		used[a] = true
		if len(d.Edges) < 4 {
			d.Edges = append(d.Edges, graph.EdgeDelta{From: a.From, To: a.To, Remove: true})
		} else {
			d.Edges = append(d.Edges, graph.EdgeDelta{From: a.From, To: a.To, P: 0.08})
		}
	}
	return d
}

// TestApplyDeltaAllocs gates the update path deterministically: a 6-arc
// batch allocates a small constant number of times, the same on the
// 20k-node serving graph as on a graph a tenth its size.
func TestApplyDeltaAllocs(t *testing.T) {
	big, err := twoBlock20k()
	if err != nil {
		t.Fatal(err)
	}
	small, err := twoBlock(2000)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(g *graph.Graph) float64 {
		d := updateBatch(g)
		return testing.AllocsPerRun(10, func() {
			if _, _, err := g.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
		})
	}
	bigAllocs, smallAllocs := allocs(big), allocs(small)
	if bigAllocs > 64 {
		t.Errorf("6-arc batch on n=%d m=%d: %.0f allocs, want <= 64", big.N(), big.M(), bigAllocs)
	}
	if bigAllocs != smallAllocs {
		t.Errorf("allocs depend on graph size: %.0f at m=%d, %.0f at m=%d", bigAllocs, big.M(), smallAllocs, small.M())
	}
}

// BenchmarkApplyDelta times one 6-arc update batch on the 20k-node
// serving graph.
func BenchmarkApplyDelta(b *testing.B) {
	g, err := twoBlock20k()
	if err != nil {
		b.Fatal(err)
	}
	d := updateBatch(g)
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := g.ApplyDelta(d); err != nil {
			b.Fatal(err)
		}
	}
}
