package influence

import (
	"math"
	"testing"

	"fairtcim/internal/cascade"
	"fairtcim/internal/graph"
)

// oracleGraph is a tiny two-group graph (n = 8, m = 12) whose 2^12
// live-edge worlds can be enumerated exactly.
func oracleGraph() *graph.Graph {
	b := graph.NewBuilder(8)
	b.SetGroups([]int{0, 0, 0, 0, 1, 1, 1, 1})
	for _, e := range []struct {
		u, v graph.NodeID
		p    float64
	}{
		{0, 1, 0.6}, {0, 2, 0.3}, {1, 2, 0.5}, {1, 3, 0.7},
		{2, 4, 0.4}, {3, 4, 0.8}, {3, 5, 0.2}, {4, 5, 0.5},
		{4, 6, 0.6}, {5, 7, 0.9}, {6, 7, 0.3}, {7, 0, 0.5},
	} {
		b.AddEdge(e.u, e.v, e.p)
	}
	return b.MustBuild()
}

// exactGroupUtilities enumerates every live-edge world of g and returns the
// exact expected per-group utility Σ_v u(d(S,v)) of seeds, where u(d) =
// γ^d for d ≤ τ and 0 beyond (γ = 1 is the 0/1 deadline utility).
func exactGroupUtilities(g *graph.Graph, seeds []graph.NodeID, tau int32, gamma float64) []float64 {
	type edge struct {
		u, v graph.NodeID
		p    float64
	}
	var edges []edge
	for u := 0; u < g.N(); u++ {
		targets, probs := g.OutEdges(graph.NodeID(u))
		for i, v := range targets {
			edges = append(edges, edge{graph.NodeID(u), v, probs[i]})
		}
	}
	out := make([]float64, g.NumGroups())
	dist := make([]int32, g.N())
	for mask := 0; mask < 1<<len(edges); mask++ {
		prob := 1.0
		for i, e := range edges {
			if mask&(1<<i) != 0 {
				prob *= e.p
			} else {
				prob *= 1 - e.p
			}
		}
		for v := range dist {
			dist[v] = -1
		}
		queue := []graph.NodeID{}
		for _, s := range seeds {
			if dist[s] < 0 {
				dist[s] = 0
				queue = append(queue, s)
			}
		}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			if dist[u] >= tau {
				continue
			}
			for i, e := range edges {
				if e.u == u && mask&(1<<i) != 0 && dist[e.v] < 0 {
					dist[e.v] = dist[u] + 1
					queue = append(queue, e.v)
				}
			}
		}
		for v, d := range dist {
			if d >= 0 {
				out[g.Group(graph.NodeID(v))] += prob * math.Pow(gamma, float64(d))
			}
		}
	}
	return out
}

// TestExactOracle checks the forward-MC estimates of the 0/1 and the
// discounted utility against exact enumeration. Each world's group-i
// utility lies in [0, |V_i|], so by Hoeffding's inequality the mean of R
// worlds is within |V_i|·sqrt(ln(2/δ)/(2R)) of the exact value with
// probability 1 − δ; δ = 1e-6 and the sample seeds are fixed, so the test
// is deterministic.
func TestExactOracle(t *testing.T) {
	const (
		samples = 100_000
		delta   = 1e-6
	)
	g := oracleGraph()
	for _, seeds := range [][]graph.NodeID{{0}, {3, 6}} {
		for _, tau := range []int32{0, 1, 2, cascade.NoDeadline} {
			for _, gamma := range []float64{1, 0.5} {
				var est []float64
				var err error
				if gamma == 1 {
					est, err = Estimate(g, seeds, tau, cascade.IC, samples, 41)
				} else {
					est, err = EstimateDiscounted(g, seeds, tau, gamma, cascade.IC, samples, 41)
				}
				if err != nil {
					t.Fatal(err)
				}
				exact := exactGroupUtilities(g, seeds, tau, gamma)
				for i := range exact {
					bound := float64(g.GroupSize(i)) * math.Sqrt(math.Log(2/delta)/(2*samples))
					if math.Abs(est[i]-exact[i]) > bound {
						t.Errorf("seeds %v τ=%d γ=%v group %d: estimate %v, exact %v (bound %v)",
							seeds, tau, gamma, i, est[i], exact[i], bound)
					}
				}
			}
		}
	}
}
