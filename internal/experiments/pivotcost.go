package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/activetime"
	"repro/internal/gen"
)

// E18PivotCost is the pivot-cost scaling study of the factorized simplex
// core: the full LP1 pipeline on the laminar/nested scaling family under the
// engine's one configuration (Forrest–Tomlin updates, dual steepest-edge
// pricing), plus the fixed-32-cap never-purging ablation of the cut
// lifecycle. For each size it reports the effort anatomy — rounds, cuts,
// purged rows, simplex pivots, refactorizations, the realized per-pivot
// cost — the hypersparse kernel digest, and the FT update digest of the
// default run (in-place updates, mean spike fill, stability-forced
// refactorizations, peak updated-U fill). Both pipelines must agree on the
// LP optimum to 1e-6, so the table is also a metamorphic check of purging
// at scale.
func E18PivotCost(cfg Config) (*Table, error) {
	sizes := []int{512, 1024, 2048, 4096}
	if cfg.Quick {
		sizes = []int{256, 512}
	}
	tab := &Table{
		ID:    "E18",
		Title: "Pivot-cost scaling of the LU/FT simplex core (default vs fixed-batch)",
		Claim: "whole-pipeline cost per pivot grows far slower than the master's live row count: hypersparse kernels and in-place FT updates track the factors' sparsity, not m",
		Columns: []string{"T", "n", "LP", "se-ms", "rounds", "cuts", "purged", "se-pivots",
			"refactors", "us/pivot", "hyp%", "ftran-nnz", "btran-nnz", "refills",
			"ft-upd", "spike-nnz", "forced", "ufill%",
			"fixed32-ms", "fixed32-pivots"},
	}
	for _, T := range sizes {
		in := gen.LargeHorizon(gen.RandomConfig{
			N: T / 8, Horizon: T, MaxLen: 16, G: 4, Seed: cfg.Seed,
		})
		start := time.Now()
		def, err := activetime.SolveLP(in)
		if err != nil {
			return nil, fmt.Errorf("T=%d default: %w", T, err)
		}
		defMS := float64(time.Since(start).Microseconds()) / 1000
		start = time.Now()
		fixed, err := activetime.SolveLPFixedBatch(in, 32)
		if err != nil {
			return nil, fmt.Errorf("T=%d fixed32: %w", T, err)
		}
		fixedMS := float64(time.Since(start).Microseconds()) / 1000
		if math.Abs(def.Objective-fixed.Objective) > 1e-6 {
			return nil, fmt.Errorf("T=%d: default LP %.9f != fixed32 LP %.9f", T, def.Objective, fixed.Objective)
		}
		perPivot := 0.0
		if def.Pivots > 0 {
			perPivot = defMS * 1000 / float64(def.Pivots)
		}
		spikeAvg := 0.0
		if def.Kernel.FTUpdates > 0 {
			spikeAvg = float64(def.Kernel.FTSpikeNNZ) / float64(def.Kernel.FTUpdates)
		}
		tab.AddRow(di(T), di(len(in.Jobs)), f3(def.Objective),
			fmt.Sprintf("%.1f", defMS), di(def.Rounds), di(def.Cuts), di(def.Purged),
			di(def.Pivots), di(def.Refactors), fmt.Sprintf("%.1f", perPivot),
			fmt.Sprintf("%.2f", def.Kernel.HyperShare()),
			fmt.Sprintf("%.1f", def.Kernel.FtranAvgNNZ()),
			fmt.Sprintf("%.1f", def.Kernel.BtranAvgNNZ()),
			di(def.Kernel.RowRefills),
			di(def.Kernel.FTUpdates), fmt.Sprintf("%.1f", spikeAvg),
			di(def.Kernel.ForcedRefactors), di(def.Kernel.UFillMaxPct),
			fmt.Sprintf("%.1f", fixedMS), di(fixed.Pivots))
		// The largest size is the headline run whose kernel digest the
		// bench trajectory gates on.
		tab.Kernel = &KernelSummary{
			HyperShare:      def.Kernel.HyperShare(),
			FtranAvgNNZ:     def.Kernel.FtranAvgNNZ(),
			BtranAvgNNZ:     def.Kernel.BtranAvgNNZ(),
			RowRefills:      def.Kernel.RowRefills,
			Pivots:          def.Pivots,
			FTUpdates:       def.Kernel.FTUpdates,
			FTSpikeAvgNNZ:   spikeAvg,
			ForcedRefactors: def.Kernel.ForcedRefactors,
			UFillMaxPct:     def.Kernel.UFillMaxPct,
		}
	}
	tab.Notes = append(tab.Notes,
		"family: laminar binary containers + nested window chains, n = T/8 jobs, g = 4",
		"se: the default pipeline (Forrest–Tomlin updates, dual steepest-edge pricing, adaptive cut cap, purging); TestDefaultPivotCeilings gates its seed-median and seed-max pivots at T = 2048/4096",
		"hyp%/ftran-nnz/btran-nnz/refills: hypersparse kernel share, mean result nonzeros per hypersparse FTRAN/BTRAN, dual working-set refill sweeps (default run)",
		"ft-upd/spike-nnz/forced/ufill%: Forrest–Tomlin in-place updates, mean spike nonzeros absorbed per update, stability-forced refactorizations, peak updated-U fill vs the refactorization-time factors (default run)",
		"fixed32: fixed 32-cut cap, no purging; identical objectives asserted (1e-6), so the table doubles as a purging metamorphic check",
		"retired columns dv-*/dz-*/pfi-*: devex and Dantzig pricing and the product-form eta file left the engine after the seed-median sizing recorded in CHANGES.md",
		"PR 2's dense-inverse engine needed ~90 s for T = 4096 on this family; see BenchmarkSolveLPLargeHorizon for the locked record")
	return tab, nil
}
