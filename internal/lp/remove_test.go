package lp

import (
	"math"
	"math/rand"
	"testing"
)

// TestRemoveRowsPreservesOptimum drives randomized cut sequences with
// interleaved removals of slack rows and checks every warm re-solve against
// a from-scratch exact rational solve of the reduced problem.
func TestRemoveRowsPreservesOptimum(t *testing.T) {
	for seed := 0; seed < 120; seed++ {
		rng := rand.New(rand.NewSource(int64(9000 + seed)))
		n := 2 + rng.Intn(5)
		p := randCoverProblem(rng, n)
		var basis *Basis
		var lastX []float64
		for c := 0; c < 8; c++ {
			cols, vals, rhs := randCut(rng, p)
			if err := p.AddSparse(cols, vals, GE, rhs); err != nil {
				t.Fatal(err)
			}
			warm, nextBasis, err := p.ResolveFrom(basis)
			if err != nil {
				t.Fatalf("seed %d cut %d: ResolveFrom: %v", seed, c, err)
			}
			basis = nextBasis
			if warm.Status != Optimal {
				basis = nil
				lastX = nil
				continue
			}
			lastX = warm.X
			// Drop every strictly slack row with probability 1/2.
			if c >= 2 && rng.Intn(2) == 0 && basis != nil {
				var drop []int
				for i := 0; i < p.NumConstraints(); i++ {
					if rowSlack(p, i, lastX) > 1e-7 && rng.Intn(2) == 0 {
						drop = append(drop, i)
					}
				}
				if len(drop) > 0 {
					if err := p.RemoveRows(drop, basis); err != nil {
						t.Fatalf("seed %d cut %d: RemoveRows(%v): %v", seed, c, drop, err)
					}
				}
			}
			// The reduced problem re-solves warm to the exact optimum.
			warm2, nb2, err := p.ResolveFrom(basis)
			if err != nil {
				t.Fatalf("seed %d cut %d: post-remove ResolveFrom: %v", seed, c, err)
			}
			basis = nb2
			exact, err := SolveExact(p)
			if err != nil {
				t.Fatal(err)
			}
			if warm2.Status != exact.Status {
				t.Fatalf("seed %d cut %d: warm status %v, exact %v", seed, c, warm2.Status, exact.Status)
			}
			if warm2.Status != Optimal {
				basis = nil
				continue
			}
			want, _ := exact.Objective.Float64()
			if math.Abs(warm2.Objective-want) > 1e-6 {
				t.Fatalf("seed %d cut %d: warm objective %v after removal, exact %v",
					seed, c, warm2.Objective, want)
			}
		}
	}
}

// TestRemoveRowsNilBasisInvalidates pins the epoch guard: removing rows
// with a nil basis then appending the same number of rows leaves the row
// COUNT unchanged, so only the removal epoch can tell the old basis is
// stale — warm re-solves (float and exact) must reject it loudly instead
// of solving against the wrong row set.
func TestRemoveRowsNilBasisInvalidates(t *testing.T) {
	build := func() *Problem {
		p := NewProblem(2)
		for j := 0; j < 2; j++ {
			p.SetObjective(j, 1)
			p.SetUpper(j, 2)
		}
		if err := p.AddDense([]float64{1, 1}, GE, 1); err != nil {
			t.Fatal(err)
		}
		if err := p.AddDense([]float64{2, 1}, GE, 1); err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := build()
	sol, basis, err := p.ResolveFrom(nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("cold: %v %v", err, sol.Status)
	}
	if err := p.RemoveRows([]int{1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.AddDense([]float64{1, 2}, GE, 3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.ResolveFrom(basis); err == nil {
		t.Fatal("stale basis accepted after nil-basis removal (row counts match)")
	}
	// Same contract for the exact engine.
	q := build()
	esol, ebasis, err := q.ResolveExactFrom(nil)
	if err != nil || esol.Status != Optimal {
		t.Fatalf("exact cold: %v %v", err, esol.Status)
	}
	if err := q.RemoveRows([]int{1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := q.AddDense([]float64{1, 2}, GE, 3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.ResolveExactFrom(ebasis); err == nil {
		t.Fatal("stale exact basis accepted after nil-basis removal")
	}
}

// rowSlack computes a·x − b for a GE row (the amount by which the point
// over-satisfies it).
func rowSlack(p *Problem, i int, x []float64) float64 {
	ax := 0.0
	for _, e := range p.rows[i] {
		ax += e.val * x[e.col]
	}
	return ax - p.b[i]
}

// TestRemoveRowsTightRowWarm pins the warm removal of binding rows: the
// relaxation pivots each removed row's logical into the basis, the next
// ResolveFrom matches a cold solve of the reduced problem, and that call's
// Iterations include the relaxation's pivots.
func TestRemoveRowsTightRowWarm(t *testing.T) {
	p := NewProblem(2)
	for j := 0; j < 2; j++ {
		p.SetObjective(j, 1)
		p.SetUpper(j, 1)
	}
	if err := p.AddDense([]float64{1, 1}, GE, 1); err != nil { // tight at the optimum
		t.Fatal(err)
	}
	if err := p.AddDense([]float64{2, 1}, GE, 1); err != nil {
		t.Fatal(err)
	}
	pivots := 0
	p.SetPivotHook(func(int, int) { pivots++ })
	sol, basis, err := p.ResolveFrom(nil)
	if err != nil || sol.Status != Optimal || math.Abs(sol.Objective-1) > 1e-9 {
		t.Fatalf("cold: %v %v obj %v", err, sol.Status, sol.Objective)
	}
	if rowSlack(p, 0, sol.X) > 1e-9 {
		t.Fatalf("row 0 is slack (%v) at the optimum; the test needs it tight", rowSlack(p, 0, sol.X))
	}
	pivots = 0
	if err := p.RemoveRows([]int{0}, basis); err != nil {
		t.Fatalf("tight row refused: %v", err)
	}
	relax := pivots
	if relax == 0 {
		t.Fatal("removing the tight row took no relaxation pivots")
	}
	warm, _, err := p.ResolveFrom(basis)
	if err != nil || warm.Status != Optimal {
		t.Fatalf("warm re-solve: %v %v", err, warm.Status)
	}
	if warm.Iterations != pivots {
		t.Errorf("warm Iterations = %d; want every pivot since the last solve (%d, %d of them the relaxation's)",
			warm.Iterations, pivots, relax)
	}
	if warm.ColdFallbacks != 0 {
		t.Errorf("warm re-solve fell back: %s", warm.FallbackVerdict)
	}
	if math.Abs(warm.Objective-0.5) > 1e-9 {
		t.Errorf("warm objective %v after removal, want 0.5", warm.Objective)
	}

	// Random cover masters: remove a random mix of tight and slack rows.
	rng := rand.New(rand.NewSource(77))
	tightSeen := 0
	for trial := 0; trial < 60; trial++ {
		p := randCoverProblem(rng, 3+rng.Intn(4))
		for c := 0; c < 6; c++ {
			cols, vals, rhs := randCut(rng, p)
			if err := p.AddSparse(cols, vals, GE, rhs); err != nil {
				t.Fatal(err)
			}
		}
		sol, basis, err := p.ResolveFrom(nil)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("trial %d: cold: %v", trial, err)
		}
		var drop []int
		for i := 0; i < p.NumConstraints(); i++ {
			if rng.Intn(3) == 0 {
				drop = append(drop, i)
				if rowSlack(p, i, sol.X) < 1e-9 {
					tightSeen++
				}
			}
		}
		if err := p.RemoveRows(drop, basis); err != nil {
			t.Fatalf("trial %d: RemoveRows(%v): %v", trial, drop, err)
		}
		warm, _, err := p.ResolveFrom(basis)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != Optimal || cold.Status != Optimal || math.Abs(warm.Objective-cold.Objective) > 1e-9 {
			t.Fatalf("trial %d: warm %v %.12f, cold %v %.12f", trial, warm.Status, warm.Objective, cold.Status, cold.Objective)
		}
		if warm.ColdFallbacks != 0 {
			t.Fatalf("trial %d: warm re-solve fell back: %s", trial, warm.FallbackVerdict)
		}
	}
	if tightSeen < 20 {
		t.Fatalf("only %d tight rows removed; the trials do not exercise the relaxation", tightSeen)
	}
}

// TestRemoveRowsRefusal pins the cases a warm removal still refuses: a tight
// equality row and a tight row whose relaxation is unbounded over the box.
// Neither mutates the problem, and the basis still warm-starts.
func TestRemoveRowsRefusal(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cost  []float64
		upper float64
		row   []float64
		rel   Relation
		rhs   float64
	}{
		{"tight equality", []float64{1, 2}, 1, []float64{1, 1}, EQ, 1},
		{"unbounded relaxation", []float64{-1, 0}, math.Inf(1), []float64{1, 1}, LE, 5},
	} {
		p := NewProblem(2)
		for j, c := range tc.cost {
			p.SetObjective(j, c)
			p.SetUpper(j, tc.upper)
		}
		if err := p.AddDense(tc.row, tc.rel, tc.rhs); err != nil {
			t.Fatal(err)
		}
		if err := p.AddDense([]float64{1, 0.5}, LE, 10); err != nil { // slack at the optimum
			t.Fatal(err)
		}
		sol, basis, err := p.ResolveFrom(nil)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("%s: cold: %v %v", tc.name, err, sol.Status)
		}
		pivots := 0
		p.SetPivotHook(func(int, int) { pivots++ })
		if err := p.RemoveRows([]int{1, 0}, basis); err == nil {
			t.Fatalf("%s: removal accepted", tc.name)
		}
		if pivots != 0 || p.NumConstraints() != 2 || p.rel[0] != tc.rel || p.b[0] != tc.rhs || p.b[1] != 10 {
			t.Fatalf("%s: refused removal mutated the problem (%d pivots, %d rows)", tc.name, pivots, p.NumConstraints())
		}
		warm, _, err := p.ResolveFrom(basis)
		if err != nil || warm.Status != Optimal || warm.ColdFallbacks != 0 || warm.Iterations != 0 ||
			math.Abs(warm.Objective-sol.Objective) > 1e-9 {
			t.Fatalf("%s: basis damaged by refused removal: %v %v obj %v (was %v), %d pivots, fallbacks %d",
				tc.name, err, warm.Status, warm.Objective, sol.Objective, warm.Iterations, warm.ColdFallbacks)
		}
	}
}

// TestRemoveRowsThenAppend exercises the session's real cycle: remove rows,
// slack or tight, append new ones, re-solve warm, repeatedly.
func TestRemoveRowsThenAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(4)
		p := randCoverProblem(rng, n)
		var basis *Basis
		live := 0
		for c := 0; c < 10; c++ {
			cols, vals, rhs := randCut(rng, p)
			if err := p.AddSparse(cols, vals, GE, rhs); err != nil {
				t.Fatal(err)
			}
			live++
			sol, nb, err := p.ResolveFrom(basis)
			if err != nil {
				t.Fatal(err)
			}
			basis = nb
			if sol.Status != Optimal {
				basis = nil
				continue
			}
			// Drop up to two random rows, slack or tight.
			var drop []int
			for k := rng.Intn(3); k > 0 && len(drop) < p.NumConstraints(); k-- {
				if i := rng.Intn(p.NumConstraints()); len(drop) == 0 || drop[0] != i {
					drop = append(drop, i)
				}
			}
			if len(drop) > 0 {
				if err := p.RemoveRows(drop, basis); err != nil {
					t.Fatalf("trial %d cut %d: RemoveRows(%v): %v", trial, c, drop, err)
				}
				live -= len(drop)
			}
			cold, err := Solve(p)
			if err != nil {
				t.Fatal(err)
			}
			warm, nb2, err := p.ResolveFrom(basis)
			if err != nil {
				t.Fatal(err)
			}
			basis = nb2
			if warm.Status != cold.Status {
				t.Fatalf("trial %d cut %d: warm %v cold %v", trial, c, warm.Status, cold.Status)
			}
			if warm.Status == Optimal && math.Abs(warm.Objective-cold.Objective) > 1e-6 {
				t.Fatalf("trial %d cut %d: warm obj %v cold %v", trial, c, warm.Objective, cold.Objective)
			}
			if warm.Status != Optimal {
				basis = nil
			}
		}
		if live != p.NumConstraints() {
			t.Fatalf("trial %d: row bookkeeping drifted: %d live vs %d rows", trial, live, p.NumConstraints())
		}
	}
}
