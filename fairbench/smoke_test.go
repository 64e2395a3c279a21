package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"fairtcim/internal/fairim"
	"fairtcim/internal/generate"
	"fairtcim/internal/ris"
	"fairtcim/internal/server"
)

// toyParams shrinks a run to seconds: a 600-node graph, small pools and
// request counts far below what the percentiles need.
func toyParams() params {
	return params{
		nodes: 600, pool: 200, evalSamples: 4, maxBudget: 12,
		count: map[string]int{phaseWarm: 40, phaseFresh: 16, phaseBuild: 16, phaseReload: 16, phaseUpdate: 8},
	}
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload once at toy size, untraced and traced,
// and checks the report carries every metric BENCHMARK.json names, with
// its unit, and passes the correctness gate.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "fairtcimd")
	if out, err := exec.Command("go", "build", "-o", bin, "fairtcim/cmd/fairtcimd").CombinedOutput(); err != nil {
		t.Fatalf("building fairtcimd: %v\n%s", err, out)
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			out, err := benchmark(toyParams(), bin, filepath.Join(dir, "work"), w.Name, 7, designSeconds, trace)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, trace, err)
			}
			var rep report
			if err := json.Unmarshal(out, &rep); err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w.Name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%t: metric %s = %+v (present %t), want unit %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
	entries, err := os.ReadDir(filepath.Join(dir, "work"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("runs left %d entries behind in the work dir", len(entries))
	}
}

// TestGateRejectsAlteredAnswer feeds the gate the daemon-equivalent
// answer to one select, then the same answer with its total nudged by
// one ulp, and expects only the second to fail.
func TestGateRejectsAlteredAnswer(t *testing.T) {
	g, err := generate.TwoBlock(generate.DefaultTwoBlock(3))
	if err != nil {
		t.Fatal(err)
	}
	sc := &script{p: toyParams(), seed: 3, n: g.N()}
	q := newSelect(classWarm, sc.cover(1, 101, "sample"))
	spec, err := selectSpec(*q.sel)
	if err != nil {
		t.Fatal(err)
	}
	col, err := ris.Sample(g, 20, pools(g, q.sel.RISPerGroup), q.sel.Seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec.Estimator = ris.NewEstimator(col)
	res, err := fairim.Solve(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	good := server.UtilityReport{Seeds: res.Seeds, Total: res.Total, PerGroup: res.PerGroup}
	bad := good
	bad.Total = math.Nextafter(good.Total, math.Inf(1))

	for _, tc := range []struct {
		name     string
		report   server.UtilityReport
		wantFail bool
	}{{"exact", good, false}, {"altered", bad, true}} {
		gt := newGate(g)
		gt.add(&result{req: q, status: 200, body: mustJSON(tc.report)})
		gt.verify(1)
		if failed := len(gt.failures) > 0; failed != tc.wantFail {
			t.Errorf("%s answer: gate failures %q, want failure %t", tc.name, gt.failures, tc.wantFail)
		}
	}
}
