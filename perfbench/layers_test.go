package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestTargetsCoverLedger keeps the per-layer metrics declared in
// BENCHMARK.json and the targets traced runs print in step.
func TestTargetsCoverLedger(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, m := range b.PerLayer {
		declared[m.Name] = true
		if targets[m.Name] == "" {
			t.Errorf("per-layer metric %s has no target", m.Name)
		}
	}
	for name := range targets {
		if !declared[name] {
			t.Errorf("target for %s, which BENCHMARK.json does not declare", name)
		}
	}
}
