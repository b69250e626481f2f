package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchSpec is the part of BENCHMARK.json the smoke test checks against.
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

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyOptions runs a workload at a small fraction of its real size.
func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 5, seconds: 1, trace: trace, scale: 0.05, workDir: t.TempDir()}
}

func tiny(t *testing.T, workload string, trace bool, inject int) (*result, string) {
	t.Helper()
	var out bytes.Buffer
	o := tinyOptions(t, workload, trace)
	o.out, o.inject = &out, inject
	res, err := run(o)
	if err != nil {
		t.Fatalf("%s trace=%v: %v\n%s", workload, trace, err, out.String())
	}
	return res, out.String()
}

// TestSmoke runs every workload tiny, traced and untraced: each run is
// correct and emits exactly the metrics BENCHMARK.json names, with their
// units; an injected wrong answer is counted as a failure.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	have := map[string]bool{}
	for _, w := range workloadNames() {
		have[w] = true
	}
	for _, w := range spec.Workloads {
		if !have[w.Name] {
			t.Fatalf("BENCHMARK.json names workload %q, which the harness lacks", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloadNames()) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloadNames()))
	}
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res, out := tiny(t, w, trace, 0)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", w, trace, res.Correct, res.Failed, res.Attempted, out)
			}
			want := map[string]string{}
			if trace {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, trace, name)
				case got.Unit != unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", w, trace, name, got.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", w, trace, name)
				}
			}
		}
		res, _ := tiny(t, w, false, 1)
		if res.Correct || res.Failed < 1 {
			t.Errorf("%s: an injected wrong answer was not counted (correct=%v failed=%d)", w, res.Correct, res.Failed)
		}
	}
}

// TestColdTierMustServe makes the served cold tier unbuildable: the
// server then serves knn-cold from the hot path, and the run must fail
// instead of reporting hot-path figures as cold ones.
func TestColdTierMustServe(t *testing.T) {
	var out bytes.Buffer
	o := tinyOptions(t, "knn-cold", false)
	o.out, o.breakCold = &out, true
	res, err := run(o)
	if err == nil {
		t.Fatalf("knn-cold ran without its cold tier: %+v\n%s", res, out.String())
	}
	if !strings.Contains(err.Error(), "cold tier") {
		t.Errorf("error %q does not name the cold tier", err)
	}
}
