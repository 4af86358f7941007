// Package experiments regenerates every figure- and theorem-level claim of
// the paper as a measurable experiment (E1-E16; see DESIGN.md section 4 for
// the full index). Each experiment returns a Table whose rows are measured
// with the repository's own solvers and verifiers — gadget claims are
// checked by constructing and verifying schedules, never by quoting
// formulas alone. cmd/paperbench renders all tables; EXPERIMENTS.md records
// a reference run.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is one experiment's result.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper's claim being measured
	Columns []string
	Rows    [][]string
	Notes   []string
	// Kernel, when set, summarizes the simplex engine's triangular-solve
	// kernel activity on the experiment's headline run; paperbench exports
	// it into the machine-readable bench records so the benchmark
	// trajectory can gate on kernel behavior, not just wall time.
	Kernel *KernelSummary
	// Approx, when set, digests the run's worst-case approximation ratios
	// and incremental-flow counters (E19); paperbench exports it alongside
	// Kernel and gates the committed trajectory on the theorem bounds.
	Approx *ApproxSummary
	// Delta, when set, digests the run's live-session delta-resolve
	// counters (E20); paperbench exports it and gates the trajectory on
	// delta-vs-cold equivalence, zero warm-start fallbacks, and the
	// headline arrival pivot ratio.
	Delta *DeltaSummary
}

// KernelSummary is the deterministic kernel-counter digest of one solve:
// everything here reproduces exactly for a pinned instance, which is what
// makes it gateable where milliseconds are not.
type KernelSummary struct {
	HyperShare  float64 `json:"hyperShare"`  // fraction of FTRAN/BTRAN solved hypersparse
	FtranAvgNNZ float64 `json:"ftranAvgNnz"` // mean result nonzeros per hypersparse FTRAN
	BtranAvgNNZ float64 `json:"btranAvgNnz"` // mean result nonzeros per hypersparse BTRAN
	RowRefills  int     `json:"rowRefills"`  // dual working-set refill sweeps
	Pivots      int     `json:"pivots"`      // simplex pivots on the headline run
	// Factorization-update digest of the headline run: Forrest–Tomlin
	// in-place updates applied, mean spike nonzeros absorbed per update,
	// stability-forced refactorizations, and peak updated-U fill as a
	// percentage of the refactorization-time factors.
	FTUpdates       int     `json:"ftUpdates"`
	FTSpikeAvgNNZ   float64 `json:"ftSpikeAvgNnz"`
	ForcedRefactors int     `json:"forcedRefactors"`
	UFillMaxPct     int     `json:"uFillMaxPct"`
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(w, "paper claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = pad(cell, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Config scales the experiments.
type Config struct {
	// Quick shrinks sweeps for fast test runs.
	Quick bool
	// Seed feeds the random workloads.
	Seed int64
}

// Runner is one registered experiment.
type Runner struct {
	ID   string
	Name string
	Run  func(Config) (*Table, error)
}

// All returns every experiment in order.
func All() []Runner {
	return []Runner{
		{"E1", "Fig3: minimal feasible vs optimal (Theorem 1)", E1MinimalFeasibleFig3},
		{"E2", "LP rounding on random instances (Theorem 2)", E2LPRounding},
		{"E3", "LP integrality gap (Section 3.5)", E3IntegralityGap},
		{"E4", "Fig1: busy-time packing of seven jobs", E4Fig1},
		{"E5", "Fig6/7: GreedyTracking tightness (Theorem 5)", E5Fig6GreedyTracking},
		{"E6", "Fig8: interval 2-approximation tightness (Theorem 3/8)", E6Fig8PairCover},
		{"E7", "Fig9: demand profile of the DP output (Lemma 7)", E7Fig9DemandProfile},
		{"E8", "Fig10-12: flexible extension factor 4 (Theorem 10)", E8Fig10Flexible},
		{"E9", "Preemptive unbounded greedy is exact (Theorem 6)", E9PreemptiveUnbounded},
		{"E10", "Preemptive bounded 2-approximation (Theorem 7)", E10PreemptiveBounded},
		{"E11", "Interval-job algorithm shootout", E11IntervalShootout},
		{"E12", "Unit jobs: exact vs approximations", E12UnitActive},
		{"E13", "Flexible busy-time pipeline", E13FlexiblePipeline},
		{"E14", "Special interval classes (footnote 1)", E14SpecialCases},
		{"E15", "Online busy time (Section 1.3 related work)", E15Online},
		{"E16", "Wall-clock scaling of the polynomial algorithms", E16Scaling},
		{"E17", "LP1 pipeline at large horizons (batched vs single-cut)", E17LPScaling},
		{"E18", "Pivot-cost scaling of the LU/FT simplex core", E18PivotCost},
		{"E19", "Approximation gap across families and horizons", E19ApproxGap},
		{"E20", "Live instance deltas vs cold re-solves", E20DeltaResolve},
	}
}

// ByID returns the runner with the given ID.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if strings.EqualFold(r.ID, id) {
			return r, true
		}
	}
	return Runner{}, false
}

// RunEach executes the given experiments in order, rendering each table to
// w. If observe is non-nil it receives every runner with its finished table
// and wall time (cmd/paperbench uses it for the -bench-json trajectory).
func RunEach(cfg Config, w io.Writer, runners []Runner, observe func(Runner, *Table, time.Duration)) error {
	for _, r := range runners {
		start := time.Now()
		tab, err := r.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		if observe != nil {
			observe(r, tab, time.Since(start))
		}
		tab.Render(w)
	}
	return nil
}

// RunAll executes every experiment and renders it to w.
func RunAll(cfg Config, w io.Writer) error {
	return RunEach(cfg, w, All(), nil)
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func d(v int64) string    { return fmt.Sprintf("%d", v) }
func di(v int) string     { return fmt.Sprintf("%d", v) }
func meanMax(xs []float64) (mean, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
		if x > max {
			max = x
		}
	}
	return mean / float64(len(xs)), max
}
