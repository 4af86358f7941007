package lp

import (
	"math"
	"math/rand"
	"testing"
)

// exactWeights recomputes every basis position's dual steepest-edge
// reference weight from scratch: one BTRAN of the position unit vector per
// position, then the squared norm of the resulting inverse row. This is the
// definitional value the incrementally maintained t.dseW must track.
func exactWeights(t *revised) []float64 {
	out := make([]float64, t.m)
	for p := 0; p < t.m; p++ {
		t.btranRho(p)
		s := 0.0
		for _, v := range t.rho[:t.m] {
			s += v * v
		}
		out[p] = s
	}
	return out
}

// checkWeights asserts the incrementally maintained weights agree with the
// from-scratch BTRAN recomputation to 1e-8 relative, unless the engine has
// (legitimately) declared them stale and fallen back to devex updates.
func checkWeights(t *testing.T, st *revised, where string) {
	t.Helper()
	if st.dseStale || st.broken {
		return
	}
	want := exactWeights(st)
	for p := range want {
		got := st.dseW[p]
		if got < 0 {
			continue // appended position not yet priced; initialized lazily
		}
		if math.Abs(got-want[p]) > 1e-8*(1+want[p]) {
			t.Fatalf("%s: weight[%d] = %.12g, exact %.12g (m=%d)", where, p, got, want[p], st.m)
		}
	}
}

// coveringProblem builds a random covering master in the texture of the
// active-time LP: bounded variables, unit objective, wide GE rows.
func coveringProblem(rng *rand.Rand, n, rows int) *Problem {
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		p.SetObjective(j, 1)
		p.SetUpper(j, 1)
	}
	for r := 0; r < rows; r++ {
		addCoverRow(p, rng, n)
	}
	return p
}

func addCoverRow(p *Problem, rng *rand.Rand, n int) {
	w := 2 + rng.Intn(n/2)
	lo := rng.Intn(n - w + 1)
	cols := make([]int, 0, w)
	vals := make([]float64, 0, w)
	for j := lo; j < lo+w; j++ {
		cols = append(cols, j)
		vals = append(vals, float64(1+rng.Intn(3)))
	}
	if err := p.AddSparse(cols, vals, GE, float64(1+w/3)); err != nil {
		panic(err)
	}
}

// TestDSEWeightsExactAcrossPivots drives cold solves, warm appends (dual
// repair pivots), RemoveRows, and the refactorizations they trigger, and
// after every re-solve recomputes each position's reference weight from
// scratch via BTRAN, asserting the incrementally maintained weights match
// to 1e-8 — the same style of ground-truth check factor_test.go applies to
// FTRAN/BTRAN themselves. The engine may not simply mark the weights stale
// to dodge the comparison: these benign sequences must keep exact
// maintenance alive, which the test asserts too.
func TestDSEWeightsExactAcrossPivots(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 24 + rng.Intn(40)
		p := coveringProblem(rng, n, 6+rng.Intn(10))
		sol, basis, err := p.ResolveFrom(nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sol.Status != Optimal {
			t.Fatalf("seed %d: cold status %v", seed, sol.Status)
		}
		checkWeights(t, basis.t, "after cold solve")
		for round := 0; round < 12; round++ {
			// Append a few violated rows, repair warm.
			for k := 0; k < 1+rng.Intn(4); k++ {
				addCoverRow(p, rng, n)
			}
			sol, basis, err = p.ResolveFrom(basis)
			if err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			if sol.Status != Optimal {
				t.Fatalf("seed %d round %d: status %v", seed, round, sol.Status)
			}
			checkWeights(t, basis.t, "after warm re-solve")
			// Periodically remove a strictly slack row, exercising the
			// weight compaction path, or a tight one, exercising the
			// relaxation pivots that precede it.
			if round%3 != 0 {
				x := sol.X
				for i := 0; i < p.NumConstraints(); i++ {
					slack := 0.0
					for _, e := range p.rows[i] {
						slack += e.val * x[e.col]
					}
					if p.rel[i] == GE && (round%3 == 2) == (slack > p.b[i]+1e-4) {
						if err := p.RemoveRows([]int{i}, basis); err != nil {
							t.Fatalf("seed %d round %d: remove: %v", seed, round, err)
						}
						break
					}
				}
				sol, basis, err = p.ResolveFrom(basis)
				if err != nil || sol.Status != Optimal {
					t.Fatalf("seed %d round %d: after remove: %v %v", seed, round, err, sol)
				}
				checkWeights(t, basis.t, "after RemoveRows re-solve")
			}
			if basis.t.dseStale {
				t.Fatalf("seed %d round %d: weights went stale on a benign sequence", seed, round)
			}
		}
	}
}

// TestDSEWeightsSurviveRefactorization forces eta-file folds by driving
// enough pivots through one state that maxEtas trips repeatedly: the
// weights live in basis-position space and must come through every
// refactorization bit-compatible with the from-scratch recomputation.
func TestDSEWeightsSurviveRefactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 80
	p := coveringProblem(rng, n, 30)
	sol, basis, err := p.ResolveFrom(nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("cold: %v %v", err, sol)
	}
	refactorsBefore := basis.t.refactors
	for round := 0; round < 30; round++ {
		for k := 0; k < 3; k++ {
			addCoverRow(p, rng, n)
		}
		sol, basis, err = p.ResolveFrom(basis)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("round %d: %v %v", round, err, sol)
		}
		checkWeights(t, basis.t, "across refactorizations")
	}
	if basis.t.refactors == refactorsBefore {
		t.Fatal("sequence never refactorized; the test is not exercising the fold path")
	}
}
