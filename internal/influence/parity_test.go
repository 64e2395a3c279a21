package influence

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"fairtcim/internal/cascade"
	"fairtcim/internal/generate"
	"fairtcim/internal/graph"
)

// parityEval is the evaluator surface the golden parity test drives. It is
// declared here, not taken from package estimator, so the test reads the
// same against any evaluator implementation that keeps the constructors.
type parityEval interface {
	GainPerGroup(v graph.NodeID) []float64
	Add(v graph.NodeID)
	Reset()
	Seeds() []graph.NodeID
	GroupUtilities() []float64
	InitialGains(candidates []graph.NodeID, parallelism int) [][]float64
}

// parityGolden pins, per case, the FNV-1a digest of the bit patterns of
// every GainPerGroup and GroupUtilities value a fixed greedy run produces
// (see runParity). Any change to the forward-MC evaluators that moves a
// single bit of any estimate changes a digest.
var parityGolden = map[string]uint64{
	"unit/tau=0":      0xb98c318d0e37b900,
	"unit/tau=3":      0xc71128725813fce4,
	"unit/tau=inf":    0xaf4f14bb7d13009d,
	"delayed/tau=0":   0xb98c318d0e37b900,
	"delayed/tau=3":   0xda68600ccee34349,
	"delayed/tau=inf": 0xbd30dedd76b3499c,
	"disc0.5/tau=0":   0xb98c318d0e37b900,
	"disc0.5/tau=3":   0x109bf041346cae90,
	"disc0.5/tau=inf": 0xee4ccbd4c74faacd,
	"disc0.9/tau=0":   0xb98c318d0e37b900,
	"disc0.9/tau=3":   0xe39e687ab3fd6a8f,
	"disc0.9/tau=inf": 0x00ba098a18f4a51f,
}

const (
	parityWorlds = 16
	paritySteps  = 4
	paritySeed   = 21
)

// TestForwardMCParity is the golden old-path-vs-new-path check for the
// forward-MC evaluators: unit-world 0/1, delayed-world 0/1 and γ-discounted
// utility, each at τ ∈ {0, 3, ∞}. For every case it pins the exact bits of
// every node's GainPerGroup at every greedy step and of GroupUtilities
// after every Add, checks the parallel InitialGains against the sequential
// gains bit for bit, and checks that Reset followed by a replay of the
// same seeds reproduces the first pass exactly.
func TestForwardMCParity(t *testing.T) {
	g, err := generate.TwoBlock(generate.TwoBlockConfig{
		N: 200, G: 0.7, PHom: 0.05, PHet: 0.005, PActivate: 0.2, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	unit := cascade.SampleWorlds(g, cascade.IC, parityWorlds, paritySeed, 0)
	delayed := cascade.SampleDelayedWorlds(g, cascade.GeometricDelay{M: 0.5}, parityWorlds, paritySeed, 0)

	taus := []struct {
		name string
		tau  int32
	}{{"0", 0}, {"3", 3}, {"inf", cascade.NoDeadline}}
	kinds := []struct {
		name string
		make func(tau int32) (parityEval, error)
	}{
		{"unit", func(tau int32) (parityEval, error) { return NewEvaluator(g, unit, tau) }},
		{"delayed", func(tau int32) (parityEval, error) { return NewDelayedEvaluator(g, delayed, tau) }},
		{"disc0.5", func(tau int32) (parityEval, error) { return NewDiscountedEvaluator(g, unit, tau, 0.5) }},
		{"disc0.9", func(tau int32) (parityEval, error) { return NewDiscountedEvaluator(g, unit, tau, 0.9) }},
	}
	for _, k := range kinds {
		for _, tc := range taus {
			name := k.name + "/tau=" + tc.name
			t.Run(name, func(t *testing.T) {
				e, err := k.make(tc.tau)
				if err != nil {
					t.Fatal(err)
				}
				got := runParity(t, g, e)
				if want := parityGolden[name]; got != want {
					t.Errorf("digest %#016x, want %#016x; final utilities %v", got, want, e.GroupUtilities())
				}
			})
		}
	}
}

// runParity drives e through a greedy run of paritySteps picks (the
// highest total gain, lowest id on ties) plus one repeated Add of the
// first seed, then Reset and a replay, and returns the digest of the
// first pass.
func runParity(t *testing.T, g *graph.Graph, e parityEval) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	write := func(xs []float64) {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	nodes := g.Nodes()

	var picks []graph.NodeID
	var utils [][]float64
	var gains [][][]float64 // gains[step][v]
	for step := 0; step <= paritySteps; step++ {
		par := e.InitialGains(nodes, 0)
		stepGains := make([][]float64, len(nodes))
		best, bestGain := graph.NodeID(0), math.Inf(-1)
		for i, v := range nodes {
			seq := append([]float64(nil), e.GainPerGroup(v)...)
			if !sameBits(par[i], seq) {
				t.Fatalf("step %d node %d: InitialGains %v, sequential %v", step, v, par[i], seq)
			}
			write(seq)
			stepGains[i] = seq
			total := 0.0
			for _, x := range seq {
				total += x
			}
			if total > bestGain {
				best, bestGain = v, total
			}
		}
		gains = append(gains, stepGains)
		if step == paritySteps {
			best = picks[0] // a repeated Add must change nothing
		}
		e.Add(best)
		picks = append(picks, best)
		u := e.GroupUtilities()
		write(u)
		utils = append(utils, u)
	}

	e.Reset()
	if len(e.Seeds()) != 0 {
		t.Fatalf("Reset left seeds %v", e.Seeds())
	}
	for _, x := range e.GroupUtilities() {
		if x != 0 {
			t.Fatalf("Reset left utilities %v", e.GroupUtilities())
		}
	}
	for step, v := range picks {
		for i, w := range nodes {
			if got := e.GainPerGroup(w); !sameBits(got, gains[step][i]) {
				t.Fatalf("replay step %d node %d: gain %v, first pass %v", step, w, got, gains[step][i])
			}
		}
		e.Add(v)
		if got := e.GroupUtilities(); !sameBits(got, utils[step]) {
			t.Fatalf("replay step %d: utilities %v, first pass %v", step, got, utils[step])
		}
	}
	return h.Sum64()
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
