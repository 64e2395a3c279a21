package estimator_test

import (
	"math"
	"testing"

	"fairtcim/internal/cascade"
	"fairtcim/internal/estimator"
	"fairtcim/internal/generate"
	"fairtcim/internal/graph"
	"fairtcim/internal/influence"
	"fairtcim/internal/ris"
)

// Every estimation engine must satisfy the shared interface.
var (
	_ estimator.Estimator = (*influence.Evaluator)(nil)
	_ estimator.Estimator = (*ris.Estimator)(nil)
)

func forwardEstimator(t *testing.T, g *graph.Graph, tau int32, samples int, seed int64) estimator.Estimator {
	t.Helper()
	worlds := cascade.SampleWorlds(g, cascade.IC, samples, seed, 0)
	e, err := influence.NewEvaluator(g, worlds, tau)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func risEstimator(t *testing.T, g *graph.Graph, tau int32, perGroup int, seed int64) estimator.Estimator {
	t.Helper()
	pools := make([]int, g.NumGroups())
	for i := range pools {
		pools[i] = perGroup
	}
	col, err := ris.Sample(g, tau, pools, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ris.NewEstimator(col)
}

// TestEngineUtilityParity checks that the forward-MC and RIS engines
// estimate the same per-group utilities for a fixed seed set on a fixed
// synthetic graph, within Monte-Carlo tolerance.
func TestEngineUtilityParity(t *testing.T) {
	cfg := generate.DefaultTwoBlock(7)
	cfg.N, cfg.PHom, cfg.PHet = 200, 0.06, 0.003
	g, err := generate.TwoBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const tau = 5
	fwd := forwardEstimator(t, g, tau, 400, 11)
	rev := risEstimator(t, g, tau, 6000, 13)

	seeds := []graph.NodeID{0, 50, 150}
	for _, s := range seeds {
		fwd.Add(s)
		rev.Add(s)
	}
	fu, ru := fwd.GroupUtilities(), rev.GroupUtilities()
	if len(fu) != len(ru) {
		t.Fatalf("group count mismatch: %d vs %d", len(fu), len(ru))
	}
	for i := range fu {
		if relDiff(fu[i], ru[i]) > 0.15 {
			t.Errorf("group %d utility: forward-MC %.3f vs RIS %.3f (rel diff %.3f)",
				i, fu[i], ru[i], relDiff(fu[i], ru[i]))
		}
	}
	if relDiff(fwd.TotalUtility(), rev.TotalUtility()) > 0.15 {
		t.Errorf("total utility: forward-MC %.3f vs RIS %.3f",
			fwd.TotalUtility(), rev.TotalUtility())
	}
}

// TestEngineGainParity checks marginal-gain agreement from the empty set:
// both engines must rank a clearly-best node first.
func TestEngineGainParity(t *testing.T) {
	g := generate.TwoStars()
	const tau = 1
	fwd := forwardEstimator(t, g, tau, 50, 3)
	rev := risEstimator(t, g, tau, 2000, 5)

	for name, e := range map[string]estimator.Estimator{"forward-mc": fwd, "ris": rev} {
		best, bestGain := graph.NodeID(-1), -1.0
		for _, v := range g.Nodes() {
			if gain := e.Gain(v); gain > bestGain {
				best, bestGain = v, gain
			}
		}
		if best != 0 {
			t.Errorf("%s: best first pick = %d (gain %.2f), want hub 0", name, best, bestGain)
		}
	}
}

func relDiff(a, b float64) float64 {
	denom := math.Max(math.Abs(a), math.Abs(b))
	if denom == 0 {
		return 0
	}
	return math.Abs(a-b) / denom
}
