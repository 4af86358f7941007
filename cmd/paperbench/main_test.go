package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestRunSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-only", "E3"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "E3") || !strings.Contains(out, "paper gap") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestBenchJSON(t *testing.T) {
	path := t.TempDir() + "/bench.json"
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-only", "E3", "-bench-json", path}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var records []struct {
		ID     string  `json:"id"`
		Name   string  `json:"name"`
		Millis float64 `json:"millis"`
		Rows   int     `json:"rows"`
	}
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	if len(records) != 1 || records[0].ID != "E3" {
		t.Fatalf("records = %+v, want one E3 entry", records)
	}
	if records[0].Millis <= 0 || records[0].Rows == 0 || records[0].Name == "" {
		t.Errorf("record fields not populated: %+v", records[0])
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-only", "E99"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-seed", "11"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"E1 —", "E7 —", "E14 —", "E15 —"} {
		if !strings.Contains(buf.String(), id) {
			t.Errorf("output missing %s", id)
		}
	}
}

// TestMergeTrajectoryGate exercises the -merge-bench non-regression gate
// directly: appending compatible records extends the trajectory, dropping
// a column, collapsing the kernel digest or raising the E20 removal
// rebuild count is rejected without touching the file, partial runs
// leave unexecuted experiments ungated, and a column on the retired list
// (and only such a column) may be dropped.
func TestMergeTrajectoryGate(t *testing.T) {
	path := t.TempDir() + "/traj.json"
	kern := &experiments.KernelSummary{HyperShare: 0.35, FtranAvgNNZ: 190, BtranAvgNNZ: 320, RowRefills: 12, Pivots: 100}
	base := []benchRecord{
		{ID: "E18", Name: "pivot cost", Millis: 5, Rows: 4, Columns: []string{"T", "pivots"}, Kernel: kern},
		{ID: "E17", Name: "lp scaling", Millis: 3, Rows: 2, Columns: []string{"T", "ms"}},
	}
	if err := mergeTrajectory(path, "pr5", base); err != nil {
		t.Fatalf("initial merge: %v", err)
	}
	// Compatible growth: extra column, slightly moved kernel share, and a
	// partial run that omits E17 entirely.
	next := []benchRecord{
		{ID: "E18", Columns: []string{"T", "pivots", "hyp%", "dv-ms"},
			Kernel: &experiments.KernelSummary{HyperShare: 0.30, Pivots: 90}},
		{ID: "E20", Columns: []string{"family", "rebuilds"},
			Delta: &experiments.DeltaSummary{RemoveRebuilds: 2, HeadlineT: 256}},
	}
	if err := mergeTrajectory(path, "pr6", next); err != nil {
		t.Fatalf("compatible merge: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var traj trajectory
	if err := json.Unmarshal(data, &traj); err != nil {
		t.Fatal(err)
	}
	if len(traj.Entries) != 2 || traj.Entries[0].Label != "pr5" || traj.Entries[1].Label != "pr6" {
		t.Fatalf("unexpected trajectory after merges: %+v", traj)
	}
	for _, bad := range []struct {
		name string
		recs []benchRecord
	}{
		{"dropped column", []benchRecord{{ID: "E18", Columns: []string{"T"}, Kernel: kern}}},
		{"dropped kernel digest", []benchRecord{{ID: "E18", Columns: []string{"T", "pivots", "hyp%"}}}},
		{"collapsed hypersparse share", []benchRecord{{ID: "E18", Columns: []string{"T", "pivots", "hyp%"},
			Kernel: &experiments.KernelSummary{HyperShare: 0.01}}}},
		{"more removal rebuilds", []benchRecord{{ID: "E20", Columns: []string{"family", "rebuilds"},
			Delta: &experiments.DeltaSummary{RemoveRebuilds: 3, HeadlineT: 256}}}},
		// dv-ms is retired, but hyp% is not: retiring one column must not
		// let an unretired one slip out beside it.
		{"dropped unretired column beside a retired one", []benchRecord{{ID: "E18", Columns: []string{"T", "pivots"},
			Kernel: kern}}},
	} {
		if err := mergeTrajectory(path, "bad", bad.recs); err == nil {
			t.Errorf("%s: merge accepted", bad.name)
		}
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
		t.Errorf("rejected merges modified the trajectory file")
	}
	retired := []benchRecord{{ID: "E18", Columns: []string{"T", "pivots", "hyp%"}, Kernel: kern}}
	if err := mergeTrajectory(path, "pr7", retired); err != nil {
		t.Errorf("dropping the retired E18 column dv-ms was rejected: %v", err)
	}
}

func TestRunOnlyList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-only", "E1,E3"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"E1 —", "E3 —"} {
		if !strings.Contains(out, id) {
			t.Errorf("output missing %s", id)
		}
	}
	if strings.Contains(out, "E2 —") {
		t.Errorf("-only E1,E3 also ran E2:\n%s", out)
	}
	if err := run([]string{"-only", "E1,,E99"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown experiment in -only list accepted")
	}
}

// TestMergeTrajectoryApproxGate exercises the approximation-digest gates:
// the absolute theorem bounds hold for every merge (even the first entry)
// and the incremental-flow counters may not regress between entries.
func TestMergeTrajectoryApproxGate(t *testing.T) {
	path := t.TempDir() + "/traj.json"
	good := func() []benchRecord {
		return []benchRecord{{ID: "E19", Name: "approx gap", Millis: 5, Rows: 8,
			Columns: []string{"family", "T"},
			Approx: &experiments.ApproxSummary{
				MaxRoundedOverLP: 1.4, MaxMinimalOverLP: 2.1,
				MaxMinimalOverOPT: 1.6, ColdFlows: 1, Cells: 8,
			}}}
	}
	for _, bad := range []struct {
		name   string
		mutate func(*experiments.ApproxSummary)
	}{
		{"rounded/LP above 2", func(a *experiments.ApproxSummary) { a.MaxRoundedOverLP = 2.01 }},
		{"minimal/OPT above 3", func(a *experiments.ApproxSummary) { a.MaxMinimalOverOPT = 3.2 }},
		{"defensive repairs", func(a *experiments.ApproxSummary) { a.Repairs = 2 }},
		{"cold flows above 1", func(a *experiments.ApproxSummary) { a.ColdFlows = 7 }},
		{"dropped proxy mass", func(a *experiments.ApproxSummary) { a.DroppedMass = 0.75 }},
	} {
		recs := good()
		bad.mutate(recs[0].Approx)
		if err := mergeTrajectory(path, "bad", recs); err == nil {
			t.Errorf("%s: merge accepted", bad.name)
		}
	}
	if _, err := os.ReadFile(path); !os.IsNotExist(err) {
		t.Fatalf("rejected first merges created the trajectory file")
	}
	if err := mergeTrajectory(path, "pr7", good()); err != nil {
		t.Fatalf("good merge: %v", err)
	}
	// Dropping the digest or regressing a counter vs the previous entry is
	// rejected.
	noDigest := good()
	noDigest[0].Approx = nil
	if err := mergeTrajectory(path, "bad", noDigest); err == nil {
		t.Error("dropped approx digest accepted")
	}
	regressed := good()
	regressed[0].Approx.ColdFlows = 1 // equal is fine...
	if err := mergeTrajectory(path, "pr8", regressed); err != nil {
		t.Errorf("equal counters rejected: %v", err)
	}
}
