package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunDefaults(t *testing.T) {
	if err := run([]string{"-epochs", "8"}); err != nil {
		t.Fatalf("default run: %v", err)
	}
}

func TestRunCompare(t *testing.T) {
	if err := run([]string{"-compare", "-epochs", "8"}); err != nil {
		t.Fatalf("compare run: %v", err)
	}
}

func TestRunLowTraceGPUCombo(t *testing.T) {
	if err := run([]string{"-combo", "Comb6", "-workload", "srad_v1", "-trace", "low", "-epochs", "8"}); err != nil {
		t.Fatalf("comb6 run: %v", err)
	}
}

func TestRunCSVExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.csv")
	if err := run([]string{"-epochs", "8", "-csv", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "epoch,case") {
		t.Errorf("csv starts %q", string(data[:20]))
	}
	if lines := strings.Count(string(data), "\n"); lines != 9 {
		t.Errorf("csv lines = %d, want 9", lines)
	}
}

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{"bad combo", []string{"-combo", "Comb9"}},
		{"bad workload", []string{"-workload", "doom"}},
		{"bad policy", []string{"-policy", "Oracle"}},
		{"bad trace", []string{"-trace", "wind"}},
		{"bad epochs", []string{"-epochs", "0"}},
		{"bad flag", []string{"-nope"}},
		{"NaN grid", []string{"-grid", "NaN"}},
		{"Inf panel", []string{"-panel", "Inf"}},
		{"negative fleet", []string{"-fleet", "-2"}},
		{"NaN site grid", []string{"-fleet", "2", "-site-grid", "NaN"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args); err == nil {
				t.Errorf("run(%v) should error", tt.args)
			}
		})
	}
}

func TestRatioHelper(t *testing.T) {
	if ratio(6, 3) != 2 || ratio(1, 0) != 0 {
		t.Error("ratio helper broken")
	}
}

func TestRunFleet(t *testing.T) {
	if err := run([]string{"-fleet", "4", "-epochs", "8"}); err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if err := run([]string{"-fleet", "3", "-alloc", "demand-proportional", "-site-grid", "2400", "-epochs", "8"}); err != nil {
		t.Fatalf("fleet demand run: %v", err)
	}
	if err := run([]string{"-fleet", "2", "-alloc", "nope", "-epochs", "8"}); err == nil {
		t.Error("unknown allocator should error")
	}
	if err := run([]string{"-fleet", "2", "-compare", "-epochs", "8"}); err == nil {
		t.Error("-fleet with -compare should error")
	}
}

func TestRunFleetScenarioFile(t *testing.T) {
	doc := `{
  "name": "cli-fleet",
  "solar": {"profile": "high", "peakWatts": 9000, "days": 1, "seed": 2},
  "epochs": 12,
  "seed": 7,
  "fleet": {
    "allocator": "hierarchical-par",
    "siteGridBudgetW": 4000,
    "racks": [
      {"name": "web", "count": 2, "policy": "GreenHetero",
       "groups": [{"server": "e5-2620", "count": 5, "workload": "specjbb"}]},
      {"name": "batch", "policy": "GreenHetero",
       "groups": [{"server": "i5-4460", "count": 8, "workload": "canneal"}]}
    ]
  }
}`
	path := filepath.Join(t.TempDir(), "fleet.json")
	if err := os.WriteFile(path, []byte(doc), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", path, "-every", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", path, "-compare"}); err == nil {
		t.Error("fleet scenario with -compare should error")
	}
}

func TestRunScenarioFile(t *testing.T) {
	doc := `{
  "name": "cli-scenario",
  "groups": [
    {"server": "e5-2620", "count": 5, "workload": "specjbb"},
    {"server": "i5-4460", "count": 5, "workload": "memcached"}
  ],
  "policy": "GreenHetero",
  "solar": {"profile": "low", "peakWatts": 2000, "days": 1, "seed": 2},
  "epochs": 12,
  "gridBudgetW": 800
}`
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(doc), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", path, "-every", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", path, "-compare"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", "/nonexistent.json"}); err == nil {
		t.Error("missing scenario should error")
	}
}
