package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// workload re-executes itself as a child (sweep worker, cold grid, serve
// window).
func TestMain(m *testing.M) {
	if role := os.Getenv(childEnv); role != "" {
		os.Exit(runChild(role))
	}
	os.Exit(m.Run())
}

// tinyConfig is a smoke-test run of a workload: tiny inputs, a short timed
// section, scratch files in the test's temporary directory.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	dir := t.TempDir()
	return config{Workload: workload, Seed: 3, Seconds: 0.3, Trace: trace, Tiny: true, WorkDir: dir, SpanDir: dir}
}

// TestWorkloadsSmoke runs every workload at tiny size, untraced and traced,
// and checks that both runs verify their outputs, report every metric, and
// agree on the digest of the verified results.
func TestWorkloadsSmoke(t *testing.T) {
	bench := readBenchmarkJSON(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			plain, err := workloads[name](context.Background(), tinyConfig(t, name, false))
			if err != nil {
				t.Fatalf("untraced run: %v", err)
			}
			traced, err := workloads[name](context.Background(), tinyConfig(t, name, true))
			if err != nil {
				t.Fatalf("traced run: %v", err)
			}
			if plain.Digest == "" || plain.Digest != traced.Digest {
				t.Errorf("result digests differ: untraced %q, traced %q", plain.Digest, traced.Digest)
			}
			if plain.Attempted < 1 || plain.Failed != 0 {
				t.Errorf("attempted %d, failed %d; want some attempted and none failed", plain.Attempted, plain.Failed)
			}
			var got []string
			for _, m := range plain.EndToEnd {
				got = append(got, m.Name)
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, m.Value)
				}
			}
			var want []string
			for _, m := range bench.EndToEnd {
				want = append(want, m.Name)
			}
			if !slices.Equal(got, want) {
				t.Errorf("end-to-end metrics %v, BENCHMARK.json lists %v", got, want)
			}
			if c := traced.Layers["trace.coverage"]; !(c > 0 && c <= 1) {
				t.Errorf("trace.coverage = %v, want in (0, 1]", c)
			}
			if o := traced.Layers["trace.overhead"]; !(o > 0) {
				t.Errorf("trace.overhead = %v, want > 0", o)
			}
		})
	}
}

// TestSelfTimesSumToLaneTime pins the reduction: self times of every layer
// add up to the lanes' root durations, and overlapping children are
// counted once.
func TestSelfTimesSumToLaneTime(t *testing.T) {
	l := &lane{Spans: []span{
		{Name: "bench.lane", Parent: -1, Start: 0, End: 100},
		{Name: "serve.a", Parent: 0, Start: 10, End: 50},
		{Name: "serve.b", Parent: 0, Start: 40, End: 70},
		{Name: "scenario.x", Parent: 1, Start: 20, End: 30},
	}}
	l.Aggs = []*agg{{Name: "network.step", Parent: 3, Count: 2, Total: 6}}
	self, laneNS := selfTimes([]*lane{l})
	want := map[string]int64{"bench": 40, "serve": 50, "scenario": 4, "network": 6}
	if laneNS != 100 {
		t.Errorf("lane time %d, want 100", laneNS)
	}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self[%s] = %d, want %d (all: %v)", k, self[k], v, self)
		}
	}
}

// benchmarkJSON mirrors the parts of BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
	} `json:"end_to_end"`
	PerLayer []layerDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, the code and the
// prediction table in step: the same workloads, the same per-layer metrics
// with the same units, and a prediction for every per-layer metric.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, workloadNames())
	}
	if !slices.Equal(b.PerLayer, layerDefs) {
		t.Errorf("BENCHMARK.json per_layer differs from layerDefs:\n%v\n%v", b.PerLayer, layerDefs)
	}
	raw, err := os.ReadFile("predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var pred struct {
		HeldOutSeed int64 `json:"held_out_seed"`
		Workloads   map[string]struct {
			Why string `json:"why"`
		} `json:"workloads"`
		PerLayer map[string]struct {
			Moves []struct {
				Metric   string `json:"metric"`
				Workload string `json:"workload"`
			} `json:"moves"`
			Elsewhere string `json:"elsewhere"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &pred); err != nil {
		t.Fatal(err)
	}
	if pred.HeldOutSeed == 0 {
		t.Error("predictions.json names no held-out seed")
	}
	for _, w := range workloadNames() {
		if pred.Workloads[w].Why == "" {
			t.Errorf("predictions.json gives no reason for workload %s", w)
		}
	}
	e2e := map[string]bool{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = true
	}
	for _, d := range layerDefs {
		p, ok := pred.PerLayer[d.Name]
		if !ok || p.Elsewhere == "" {
			t.Errorf("predictions.json has no prediction for %s", d.Name)
		}
		for _, m := range p.Moves {
			if !e2e[m.Metric] || workloads[m.Workload] == nil {
				t.Errorf("%s: prediction names unknown metric %q or workload %q", d.Name, m.Metric, m.Workload)
			}
		}
	}
	if len(pred.PerLayer) != len(layerDefs) {
		t.Errorf("predictions.json lists %d per-layer metrics, code has %d", len(pred.PerLayer), len(layerDefs))
	}
}
