package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// TestBenchmarkFileMatchesMetrics keeps BENCHMARK.json, which the
// benchmark is judged by, in step with the metrics this program reports.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var e2e []metricDef
	maxBound, setupBound := 0.0, 0.0
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json = %v\nreported: %v", e2e, endToEnd)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	var layers []metricDef
	for _, m := range bf.PerLayer {
		layers = append(layers, metricDef{Name: m.Name, Unit: m.Unit})
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json = %v\nreported: %v", layers, perLayer)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads in BENCHMARK.json = %v, implemented %v", names, workloadNames())
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bf.RunSeconds)
	}
}

// TestBenchmarkFileShape checks the file's keys and the path rules: the
// command names no file outside the benchmark's directory.
func TestBenchmarkFileShape(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("keys %v, want %v", keys, want)
	}
	var paths, command []string
	if err := json.Unmarshal(raw["paths"], &paths); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw["command"], &command); err != nil {
		t.Fatal(err)
	}
	pathRe := regexp.MustCompile(`^[A-Za-z0-9_.\-/]{1,200}$`)
	for _, p := range paths {
		if !pathRe.MatchString(p) {
			t.Errorf("path %q", p)
		}
	}
	if !reflect.DeepEqual(paths, []string{"repairbench"}) || command[1] != "repairbench/run.sh" {
		t.Errorf("paths %v, command %v", paths, command)
	}
}
