package lp

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// revised is the sparse revised-simplex working state of the float engine.
//
// Unlike the dense tableau it replaced, the constraint matrix is never
// transformed: rows are stored once in sign-normalized compressed sparse
// form (plus a per-column view for FTRAN), and all pivoting state lives in
// the factorized basis representation f — a sparse LU of the basis as of
// the last refactorization, kept current by one Forrest–Tomlin update per
// basis change (see factor.go). Logical columns (slacks, surpluses, artificials)
// are signed unit vectors and are never materialized. xB holds the actual
// value of each basic variable — not a transformed right-hand side — which
// keeps the bookkeeping correct when nonbasic variables rest at nonzero
// upper bounds.
//
// Per pivot the engine performs:
//
//   - an FTRAN (w = B⁻¹·A_q): the entering column's sparse entries solved
//     through L, the row etas, and the updated U, O(m + nnz(factors));
//   - a BTRAN (rho = e_rᵀ·B⁻¹) for the leaving row when the dual ratio test
//     or the reduced-cost update needs the pivot row;
//   - a pivot-row sweep alpha = rho·A over the sparse rows touching rho,
//     accumulating into a touched-column list, O(Σ nnz of touched rows) —
//     this is what prices cuts without ever scanning a dense row of
//     length n;
//   - a Forrest–Tomlin update of U in place — spike column in, bump row
//     eliminated into one short row eta, O(nnz(spike) + bump closure)
//     written — plus an O(|touched|) in-place reduced-cost update: nothing
//     of size m² is ever written.
//
// The updated factors are folded into a fresh LU on the fold policy of
// factor.go (update count or fill growth), when rows are appended or
// removed (factorStale), on every
// resync, and — forced, counted in KernelStats.ForcedRefactors — when a
// spike fails the update's stability tolerance. Numerical drift is controlled
// exactly as documented in the package comment: the reduced-cost row is
// refreshed periodically and before any optimality claim, and a conclusion
// of dual infeasibility is only accepted after a full refactorization plus
// a basic-value resync confirms it.
type revised struct {
	n         int // structural variables
	m         int // materialized rows
	rowsBuilt int // Problem rows incorporated (including presolved-away ones)
	epoch     int // Problem.removeEpoch this state last synchronized with

	// Constraint matrix, sign-normalized per row (rows with negative rhs
	// are flipped at build time; warm-appended GE rows are negated so their
	// slack keeps a +1 coefficient).
	rowCols [][]int32
	rowVals [][]float64
	rowRun  [][]alphaRun // run-compressed mirror of rowCols/rowVals
	rowLogs [][]int32    // logical columns belonging to each row (1 or 2)
	rhs     []float64    // normalized right-hand sides
	colRows [][]int32    // per structural column: rows with a nonzero entry
	colVals [][]float64

	logRow  []int32   // per logical column (index col-n): owning row
	logSign []float64 // +1 slack/artificial, -1 surplus

	f           factor  // factorized basis: LU + Forrest–Tomlin updates (see factor.go)
	factorStale bool    // basis structure changed; refactorize before solving
	broken      bool    // refactorization failed; only IterLimit may be reported
	probRow     []int32 // per Problem row: engine row, or -1 if presolved away

	basis []int     // basic column of each basis position
	xB    []float64 // value of the basic variable at each position

	// Per-column state, structural columns first, then logical columns in
	// materialization order.
	cost       []float64
	upper      []float64
	atUpper    []bool
	isArt      []bool
	inBasis    []bool
	whereBasic []int // basis row of the column, -1 when nonbasic

	probUpper []float64 // the Problem's structural bounds as of construction
	//                     (upper may be tighter after singleton presolve)

	curCost []float64 // cost vector of the current phase
	red     []float64 // persistent reduced-cost row for curCost

	// Scratch reused across pivots so steady-state pivoting is
	// allocation-free.
	w       []float64  // FTRAN result, length m
	rho     []float64  // pivot row of binv, length m
	y       []float64  // dual scratch for refreshes, length m
	flipAcc []float64  // row-space accumulator for batched bound flips, length m
	flipSol []float64  // FTRAN scratch for applyFlips, length m, kept zeroed
	tau     []float64  // steepest-edge update scratch (B⁻¹·rho), length m
	alpha   []float64  // pivot row of the tableau, length ncols, kept zeroed
	touched []int32    // columns with nonzero alpha this pivot
	cands   []dualCand // dual ratio-test candidates, reused across pivots

	// Sparse-support bookkeeping for the kernel scratch above: each Ind
	// slice holds the sorted support of the matching vector's last solve
	// when its Sparse flag is set (the vector is then zeroed through the
	// support instead of a full sweep); a cleared flag means the last solve
	// fell back to the dense path. invalidateKernel drops all of it when
	// the row dimension changes.
	wInd       []int32
	wSparse    bool
	rhoInd     []int32
	rhoSparse  bool
	tauInd     []int32
	tauSparse  bool
	flipInd    []int32 // support of flipAcc (engine rows; dups tolerated)
	flipSolInd []int32
	oneInd     [1]int32 // unit-vector support scratch for ftran/btranRho

	// Dual working-set pricing (see pickDualRow): the candidate leaving
	// rows and membership flags keyed by basis position. rowListOK means
	// the invariant "every violated position is listed" holds — refills
	// establish it, noteDualRow maintains it across basic-value updates,
	// and anything that re-derives basic values wholesale clears it.
	rowList   []int32
	inRowList []bool
	rowListOK bool

	kstats       KernelStats // lifetime kernel counters
	kstatsAtCall KernelStats // snapshot when the current ResolveFrom began

	// Pricing state (see the pricing section of the package comment).
	// dseW[i] is the dual pricing weight of basis position i: the exact
	// Forrest–Goldfarb reference weight ‖e_iᵀB⁻¹‖² while dseStale is
	// false, a devex-style approximation after. A negative entry marks a
	// position appended since the last dual pass, initialized lazily by
	// ensureWeights. Weights live in basis-position space, so they
	// survive refactorization unchanged (B does not change) and survive
	// RemoveRows by compaction (the surviving rows of the reduced inverse
	// are exactly the surviving rows of the old one).
	dseW     []float64
	dseStale bool // exact FG maintenance lost; devex max-form updates from here on
	// Partial primal pricing: a managed candidate list plus the cyclic
	// rotor position the next refill scan starts from.
	candList  []int32
	candRotor int

	pivots          int // lifetime pivot count
	pivotsAtCall    int // pivot count when the current ResolveFrom began
	refactors       int // lifetime successful refactorizations
	refactorsAtCall int // refactorization count when the current call began
	// callOpen marks the *AtCall snapshots as taken early: a RemoveRows
	// relaxation pivoted since the last solve, and the next ResolveFrom
	// reports that work as its own instead of re-snapshotting.
	callOpen     bool
	sinceRefresh int

	pivotHook func(row, col int) // observes basis changes; nil outside tests
}

// Pricing constants.
const (
	// candListMax bounds the partial-pricing candidate list: a refill
	// scan stops as soon as this many attractive columns are collected,
	// so steady-state primal pricing touches a managed window of columns
	// instead of all of them. A full cyclic wrap that collects nothing is
	// the (only) way partial pricing concludes no attractive column
	// exists, which keeps its optimality claims identical to a full
	// scan's.
	candListMax = 64
	// dseWeightFloor keeps incrementally updated weights positive when
	// cancellation in the FG update rounds a tiny weight below zero.
	dseWeightFloor = 1e-10
	// dseStaleFactor is the staleness trigger: when the incrementally
	// maintained weight of the pivot row disagrees with the exact
	// ‖e_rᵀB⁻¹‖² (computed anyway for the ratio test) by more than this
	// factor either way, the whole weight set is declared stale and the
	// engine falls back to devex max-form updates.
	dseStaleFactor = 16.0
	// devexResetAbove restarts the devex reference framework (all
	// weights back to 1) when a weight outgrows it; unbounded devex
	// weights degenerate into pure most-infeasible selection.
	devexResetAbove = 1e10
)

// newRevised builds the initial state. Singleton "a*x_j <= b" rows with
// a > 0, b >= 0 are presolved into the variable's upper bound (and vacuous
// singleton <= rows dropped) rather than materialized, so box constraints
// cost nothing regardless of how the caller expressed them.
func newRevised(p *Problem) *revised {
	m, n := len(p.rows), p.numVars
	bound := make([]float64, n)
	if p.upper != nil {
		copy(bound, p.upper)
	} else {
		for j := range bound {
			bound[j] = math.Inf(1)
		}
	}
	type rowKind struct {
		rel  Relation
		flip bool
		skip bool
	}
	kinds := make([]rowKind, m)
	nRows, nLog := 0, 0
	for i := range p.rows {
		rel, b := p.rel[i], p.b[i]
		if rel == LE && b >= 0 {
			if col, coef, single := singleton(p.rows[i]); single {
				if coef > 0 {
					if u := b / coef; u < bound[col] {
						bound[col] = u
					}
				}
				// coef <= 0 (or empty row): vacuous given x >= 0, b >= 0.
				kinds[i].skip = true
				continue
			}
		}
		flip := b < 0
		if flip {
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		kinds[i] = rowKind{rel: rel, flip: flip}
		nRows++
		switch rel {
		case LE, EQ:
			nLog++
		case GE:
			nLog += 2 // surplus + artificial
		}
	}
	nTotal := n + nLog
	colCap := nTotal + nTotal/4 + 16 // headroom for appended cut columns
	rowCap := nRows + nRows/4 + 16
	t := &revised{
		n:          n,
		rowsBuilt:  m,
		epoch:      p.removeEpoch,
		rowCols:    make([][]int32, 0, rowCap),
		rowVals:    make([][]float64, 0, rowCap),
		rowRun:     make([][]alphaRun, 0, rowCap),
		rowLogs:    make([][]int32, 0, rowCap),
		rhs:        make([]float64, 0, rowCap),
		colRows:    make([][]int32, n),
		colVals:    make([][]float64, n),
		logRow:     make([]int32, 0, colCap-n),
		logSign:    make([]float64, 0, colCap-n),
		probRow:    make([]int32, 0, rowCap),
		basis:      make([]int, 0, rowCap),
		xB:         make([]float64, 0, rowCap),
		cost:       make([]float64, nTotal, colCap),
		upper:      make([]float64, nTotal, colCap),
		atUpper:    make([]bool, nTotal, colCap),
		isArt:      make([]bool, nTotal, colCap),
		inBasis:    make([]bool, nTotal, colCap),
		whereBasic: make([]int, nTotal, colCap),
		curCost:    make([]float64, nTotal, colCap),
		red:        make([]float64, nTotal, colCap),
		alpha:      make([]float64, nTotal, colCap),
		w:          make([]float64, nRows, rowCap),
		rho:        make([]float64, nRows, rowCap),
		y:          make([]float64, nRows, rowCap),
		flipAcc:    make([]float64, nRows, rowCap),
		flipSol:    make([]float64, nRows, rowCap),
		tau:        make([]float64, nRows, rowCap),
		touched:    make([]int32, 0, colCap),
		dseW:       make([]float64, nRows, rowCap),
		inRowList:  make([]bool, nRows, rowCap),
		pivotHook:  p.pivotHook,
	}
	t.f.forceDense = p.denseKernels
	t.f.stats = &t.kstats
	// The initial all-logical basis is a signed permutation, so every row
	// of its inverse has norm exactly 1: the weight set starts exact.
	for i := range t.dseW {
		t.dseW[i] = 1
	}
	copy(t.cost, p.c)
	copy(t.upper, bound)
	for j := n; j < nTotal; j++ {
		t.upper[j] = math.Inf(1)
	}
	for j := range t.whereBasic {
		t.whereBasic[j] = -1
	}
	t.probUpper = make([]float64, n)
	if p.upper != nil {
		copy(t.probUpper, p.upper)
	} else {
		for j := range t.probUpper {
			t.probUpper[j] = math.Inf(1)
		}
	}
	logCol := n
	for i := range p.rows {
		if kinds[i].skip {
			t.probRow = append(t.probRow, -1)
			continue
		}
		sign := 1.0
		if kinds[i].flip {
			sign = -1.0
		}
		cols, vals := normalizeEntries(p.rows[i], sign)
		r := t.m
		for k, c := range cols {
			t.colRows[c] = append(t.colRows[c], int32(r))
			t.colVals[c] = append(t.colVals[c], vals[k])
		}
		t.rowCols = append(t.rowCols, cols)
		t.rowVals = append(t.rowVals, vals)
		t.rowRun = append(t.rowRun, compressRuns(cols, vals))
		t.rhs = append(t.rhs, sign*p.b[i])
		var logs []int32
		var bas int
		addLog := func(s float64, art bool) int {
			c := logCol
			logCol++
			t.logRow = append(t.logRow, int32(r))
			t.logSign = append(t.logSign, s)
			t.isArt[c] = art
			logs = append(logs, int32(c))
			return c
		}
		switch kinds[i].rel {
		case LE:
			bas = addLog(1, false)
		case GE:
			addLog(-1, false)
			bas = addLog(1, true)
		case EQ:
			bas = addLog(1, true)
		}
		t.rowLogs = append(t.rowLogs, logs)
		t.probRow = append(t.probRow, int32(r))
		t.basis = append(t.basis, bas)
		t.xB = append(t.xB, sign*p.b[i])
		t.inBasis[bas] = true
		t.whereBasic[bas] = r
		t.m++
	}
	// The initial all-logical basis factorizes trivially; do it lazily at
	// the first solve entry like any other structural change.
	t.factorStale = true
	return t
}

// basisColNNZ reports the nonzero count of the basic column at position p
// (the refactorization's static Markowitz-style ordering key).
func (t *revised) basisColNNZ(p int) int {
	if c := t.basis[p]; c < t.n {
		return len(t.colRows[c])
	}
	return 1
}

// scatterBasisColumn adds the sparse entries of the basic column at
// position p into the engine-row-indexed accumulator x, implementing the
// factorization's basisMatrix source without per-column closures.
func (t *revised) scatterBasisColumn(p int, x []float64, patt []int32) []int32 {
	c := t.basis[p]
	if c < t.n {
		rows, vals := t.colRows[c], t.colVals[c]
		for k, r := range rows {
			if x[r] == 0 && vals[k] != 0 {
				patt = append(patt, r)
			}
			x[r] += vals[k]
		}
		return patt
	}
	r := t.logRow[c-t.n]
	if x[r] == 0 {
		patt = append(patt, r)
	}
	x[r] += t.logSign[c-t.n]
	return patt
}

// factorizeNow rebuilds the LU factorization from the current basis columns,
// dropping the Forrest–Tomlin updates. On numerical singularity the representation is lost
// and the state is marked broken: every iterate loop then reports IterLimit,
// which the caller turns into a cold re-solve (or a loud non-optimum) — a
// broken state never certifies optimality or infeasibility.
func (t *revised) factorizeNow() bool {
	if t.f.refactorize(t.m, t) {
		t.factorStale = false
		t.broken = false
		t.refactors++
		return true
	}
	t.broken = true
	return false
}

// ensureFactor makes the factorization match the current basis structure,
// refactorizing if rows were appended or removed since the last solve.
func (t *revised) ensureFactor() bool {
	if !t.factorStale {
		return !t.broken
	}
	return t.factorizeNow()
}

// dualCand is one eligible entering column of the bounded dual ratio test.
type dualCand struct {
	col   int32
	ratio float64
	mag   float64 // |pivot element|, the tie-breaking key
}

// dualCandBefore is the bound-flipping walk's consumption order: ratio
// ascending with ratios below tieTol collapsed into one degenerate bucket,
// ties by descending pivot magnitude (Harris-style), final ties by a hashed
// (still deterministic) column order that decorrelates the flip walk from
// the master's column layout — plain index order re-correlates it into
// coherent flip storms on integer-data masters.
func dualCandBefore(a, b dualCand) bool {
	const tieTol = 1e-9 // ratios below this are the degenerate bucket
	ra, rb := a.ratio, b.ratio
	if ra <= tieTol {
		ra = 0
	}
	if rb <= tieTol {
		rb = 0
	}
	if ra != rb {
		return ra < rb
	}
	if a.mag != b.mag {
		return a.mag > b.mag
	}
	ha := uint32(a.col) * 2654435761
	hb := uint32(b.col) * 2654435761
	if ha != hb {
		return ha < hb
	}
	return a.col < b.col
}

// heapifyDualCands builds a binary min-heap under dualCandBefore in place.
func heapifyDualCands(c []dualCand) {
	for i := len(c)/2 - 1; i >= 0; i-- {
		siftDualCand(c, i)
	}
}

// siftDualCand restores the heap property below index i.
func siftDualCand(c []dualCand, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(c) && dualCandBefore(c[l], c[min]) {
			min = l
		}
		if r < len(c) && dualCandBefore(c[r], c[min]) {
			min = r
		}
		if min == i {
			return
		}
		c[i], c[min] = c[min], c[i]
		i = min
	}
}

// pivTol is the minimum magnitude accepted for a dual pivot element.
// Pivoting on elements near the eps noise floor multiplies the basis
// inverse by huge factors and destroys it within a few iterations; the
// verification loop in ResolveFrom would catch the damage, but refusing
// such pivots keeps the inverse healthy in the first place.
const pivTol = 1e-7

// singleton reports whether the row references a single variable (after
// summing duplicate columns and ignoring zero coefficients); col is -1 for
// an empty row.
func singleton(row []entry) (col int, coef float64, ok bool) {
	col = -1
	for _, e := range row {
		if e.val == 0 {
			continue
		}
		if col >= 0 && e.col != col {
			return 0, 0, false
		}
		col = e.col
		coef += e.val
	}
	return col, coef, true
}

// normalizeEntries returns the row's structural entries scaled by sign, with
// duplicate columns summed and zero coefficients dropped, sorted by column.
func normalizeEntries(row []entry, sign float64) ([]int32, []float64) {
	cols := make([]int32, 0, len(row))
	vals := make([]float64, 0, len(row))
	sorted := true
	for _, e := range row {
		if e.val == 0 {
			continue
		}
		if len(cols) > 0 && int32(e.col) <= cols[len(cols)-1] {
			sorted = false
		}
		cols = append(cols, int32(e.col))
		vals = append(vals, sign*e.val)
	}
	if !sorted && len(cols) > 1 {
		order := make([]int, len(cols))
		for k := range order {
			order[k] = k
		}
		sort.Slice(order, func(a, b int) bool { return cols[order[a]] < cols[order[b]] })
		oc := make([]int32, 0, len(cols))
		ov := make([]float64, 0, len(vals))
		for _, k := range order {
			if len(oc) > 0 && oc[len(oc)-1] == cols[k] {
				ov[len(ov)-1] += vals[k]
			} else {
				oc = append(oc, cols[k])
				ov = append(ov, vals[k])
			}
		}
		cols, vals = oc, ov
	}
	// Drop entries that cancelled to zero.
	out := 0
	for k := range cols {
		if vals[k] != 0 {
			cols[out], vals[out] = cols[k], vals[k]
			out++
		}
	}
	return cols[:out], vals[:out]
}

// setPhaseCost loads the working cost vector: artificial costs for phase 1,
// the problem objective for phase 2.
func (t *revised) setPhaseCost(phase1 bool) {
	nTotal := len(t.cost)
	t.curCost = t.curCost[:nTotal]
	if phase1 {
		for j := range t.curCost {
			if t.isArt[j] {
				t.curCost[j] = 1
			} else {
				t.curCost[j] = 0
			}
		}
	} else {
		copy(t.curCost, t.cost)
	}
}

// refreshRed recomputes the basic values and the reduced-cost row from the
// factorized basis: xB = B⁻¹(b − N·x_N) by FTRAN, then the duals
// y = c_B·B⁻¹ by BTRAN, then red_j = c_j - y·A_j via one sweep over the
// sparse rows. Re-deriving xB together with red keeps the incremental
// per-pivot updates from drifting apart between refreshes.
func (t *revised) refreshRed() {
	if !t.ensureFactor() {
		t.sinceRefresh = 0
		return
	}
	t.refreshXB()
	nTotal := len(t.curCost)
	t.red = t.red[:nTotal]
	copy(t.red, t.curCost)
	y := t.y[:t.m]
	for i := 0; i < t.m; i++ {
		y[i] = t.curCost[t.basis[i]]
	}
	t.f.btran(y) // dense by design: c_B is a dense right-hand side
	t.kstats.noteBtran(false, 0)
	for i := 0; i < t.m; i++ {
		yi := y[i]
		if yi == 0 {
			continue
		}
		cols, vals := t.rowCols[i], t.rowVals[i]
		red := t.red
		for k, c := range cols {
			red[c] -= yi * vals[k]
		}
		for _, lc := range t.rowLogs[i] {
			red[lc] -= yi * t.logSign[lc-int32(t.n)]
		}
	}
	t.sinceRefresh = 0
}

// invalidateKernel forgets the sparse-support bookkeeping of the solve
// scratch — after any change to the row dimension the stale supports may
// index out of range — and schedules a dual working-set rebuild.
func (t *revised) invalidateKernel() {
	t.wSparse, t.rhoSparse, t.tauSparse = false, false, false
	t.rowListOK = false
}

// ftran computes w = B⁻¹·A_col into t.w: the column's sparse entries are
// scattered into the row-space right-hand side and solved through the
// hypersparse kernels, leaving the result's support in t.wInd (wSparse is
// cleared when the solve fell back to the dense path; t.w is a valid dense
// result either way).
func (t *revised) ftran(col int) {
	w := t.w[:t.m]
	if t.wSparse {
		for _, i := range t.wInd {
			w[i] = 0
		}
	} else {
		for i := range w {
			w[i] = 0
		}
	}
	var ind []int32
	if col < t.n {
		rows, vals := t.colRows[col], t.colVals[col]
		for k, r := range rows {
			w[r] = vals[k]
		}
		ind = rows
	} else {
		r := t.logRow[col-t.n]
		w[r] = t.logSign[col-t.n]
		t.oneInd[0] = r
		ind = t.oneInd[:]
	}
	t.wInd, t.wSparse = t.f.ftranSparse(w, ind, t.wInd[:0], ftranEnter)
	t.kstats.noteFtran(t.wSparse, len(t.wInd))
}

// btranRho computes rho = e_rowᵀ·B⁻¹ (the pivot row of the inverse) into
// t.rho by a BTRAN of the position-space unit vector, leaving the row's
// support in t.rhoInd (rhoSparse cleared on dense fallback).
func (t *revised) btranRho(row int) {
	rho := t.rho[:t.m]
	if t.rhoSparse {
		for _, i := range t.rhoInd {
			rho[i] = 0
		}
	} else {
		for i := range rho {
			rho[i] = 0
		}
	}
	rho[row] = 1
	t.oneInd[0] = int32(row)
	t.rhoInd, t.rhoSparse = t.f.btranSparse(rho, t.oneInd[:], t.rhoInd[:0])
	t.kstats.noteBtran(t.rhoSparse, len(t.rhoInd))
}

// ensureWeights initializes pricing weights for basis positions appended
// since the last pricing pass (marked -1 by appendRow). While the weight
// set is exactly maintained, a new position's reference weight is computed
// exactly with one BTRAN of the position unit vector — ‖e_pᵀB⁻¹‖², the
// Forrest–Goldfarb definition; in devex mode the reference value 1 is used.
// Existing positions are never touched here: applyPivot maintains them
// incrementally across every basis change.
func (t *revised) ensureWeights() {
	exact := !t.dseStale && !t.broken && !t.factorStale
	for p := 0; p < t.m; p++ {
		if t.dseW[p] >= 0 {
			continue
		}
		if !exact {
			t.dseW[p] = 1
			continue
		}
		t.btranRho(p)
		rho := t.rho[:t.m]
		s := 0.0
		if t.rhoSparse {
			for _, i := range t.rhoInd {
				v := rho[i]
				s += v * v
			}
		} else {
			for _, v := range rho {
				s += v * v
			}
		}
		if s < dseWeightFloor {
			s = dseWeightFloor
		}
		t.dseW[p] = s
	}
}

// updateWeights maintains the dual pricing weights across the basis change
// at position row: t.w must hold the pivot column B⁻¹·A_q and t.rho the
// pivot row e_rowᵀ·B⁻¹, both for the pre-pivot basis (which is why
// applyPivot calls this before the factor update). The exact norm of
// the pivot row — free, since the row was computed for the ratio test
// anyway — always anchors the leaving position's new weight, and doubles as
// the staleness detector: when the incrementally carried weight disagrees
// with the exact norm by more than dseStaleFactor, accumulated update error
// has detached the weight set from the basis and the engine degrades to
// devex max-form updates (robust to approximate weights) for the rest of
// this state's life.
//
// Exact (Forrest–Goldfarb) mode updates every position touched by the
// pivot column with
//
//	β'_i = β_i − 2·(w_i/w_r)·τ_i + (w_i/w_r)²·β_r ,  τ = B⁻¹·rho_row ,
//
// costing one extra FTRAN per pivot (τ_i is the inner product of inverse
// rows i and row); devex mode uses β'_i = max(β_i, (w_i/w_r)²·β_r) with no
// extra solve.
func (t *revised) updateWeights(row int) {
	w := t.w[:t.m]
	wr := w[row]
	if wr == 0 {
		return
	}
	rho := t.rho[:t.m]
	br := 0.0
	if t.rhoSparse {
		for _, i := range t.rhoInd {
			v := rho[i]
			br += v * v
		}
	} else {
		for _, v := range rho {
			br += v * v
		}
	}
	inv := 1 / wr
	if !t.dseStale {
		if incw := t.dseW[row]; incw > 0 && (incw*dseStaleFactor < br || incw > br*dseStaleFactor) {
			t.dseStale = true
			for i := range t.dseW {
				t.dseW[i] = 1
			}
		}
	}
	if !t.dseStale {
		// FG correction term τ = B⁻¹·rho, solved through the hypersparse
		// kernels with rho's support as the right-hand-side pattern.
		tau := t.tau[:t.m]
		if t.tauSparse {
			for _, i := range t.tauInd {
				tau[i] = 0
			}
		} else {
			for i := range tau {
				tau[i] = 0
			}
		}
		if t.rhoSparse {
			for _, i := range t.rhoInd {
				tau[i] = rho[i]
			}
			t.tauInd, t.tauSparse = t.f.ftranSparse(tau, t.rhoInd, t.tauInd[:0], ftranTau)
		} else {
			copy(tau, rho)
			t.f.ftran(tau)
			t.tauInd, t.tauSparse = t.tauInd[:0], false
		}
		t.kstats.noteFtran(t.tauSparse, len(t.tauInd))
		if t.wSparse {
			for _, i32 := range t.wInd {
				i := int(i32)
				wi := w[i]
				if wi == 0 || i == row {
					continue
				}
				s := wi * inv
				nb := t.dseW[i] - 2*s*tau[i] + s*s*br
				if nb < dseWeightFloor {
					nb = dseWeightFloor
				}
				t.dseW[i] = nb
			}
		} else {
			for i := 0; i < t.m; i++ {
				wi := w[i]
				if wi == 0 || i == row {
					continue
				}
				s := wi * inv
				nb := t.dseW[i] - 2*s*tau[i] + s*s*br
				if nb < dseWeightFloor {
					nb = dseWeightFloor
				}
				t.dseW[i] = nb
			}
		}
		nb := br * inv * inv
		if nb < dseWeightFloor {
			nb = dseWeightFloor
		}
		t.dseW[row] = nb
		return
	}
	// Devex max-form updates, anchored at the exact pivot-row norm.
	reset := false
	if t.wSparse {
		for _, i32 := range t.wInd {
			i := int(i32)
			wi := w[i]
			if wi == 0 || i == row {
				continue
			}
			if cand := wi * wi * inv * inv * br; cand > t.dseW[i] {
				t.dseW[i] = cand
				if cand > devexResetAbove {
					reset = true
				}
			}
		}
	} else {
		for i := 0; i < t.m; i++ {
			wi := w[i]
			if wi == 0 || i == row {
				continue
			}
			if cand := wi * wi * inv * inv * br; cand > t.dseW[i] {
				t.dseW[i] = cand
				if cand > devexResetAbove {
					reset = true
				}
			}
		}
	}
	brr := br * inv * inv
	if brr < 1 {
		brr = 1
	}
	t.dseW[row] = brr
	if reset || brr > devexResetAbove {
		for i := range t.dseW {
			t.dseW[i] = 1
		}
	}
}

// pivotRowAlpha accumulates alpha_j = rho·A_j for every column with a
// nonzero result into t.alpha, recording them in t.touched; t.rho must hold
// the pivot row (btranRho leaves its support in t.rhoInd, which this sweep
// walks instead of scanning all m positions when available). The cost is
// the sparse support of the pivot row, never n or m. Callers must drain
// t.alpha back to zero (the reduced-cost update in applyPivot does, as does
// clearAlpha).
func (t *revised) pivotRowAlpha() {
	t.touched = t.touched[:0]
	rho := t.rho[:t.m]
	// Estimate the scatter volume (Σ stored entries over rho's support)
	// first: wide covering cuts make pivot rows column-dense at scale, and
	// once the volume passes the column count it is cheaper to scatter with
	// no per-entry support tracking and recover touched in one sequential
	// sweep. The two modes are interchangeable: per-column accumulation
	// order is identical, and the only touched-list differences — columns
	// whose alpha cancelled to exact zero, or duplicate listings — are
	// no-ops for every consumer (zero alphas fail the pivot-tolerance
	// checks and contribute nothing to the reduced-cost update, and the
	// ratio-test heap pops a strict total order regardless of insertion
	// order), so the pivot sequence does not depend on the mode switch.
	nc := len(t.alpha)
	vol := 0
	if t.rhoSparse {
		for _, i32 := range t.rhoInd {
			i := int(i32)
			if rho[i] != 0 {
				vol += len(t.rowCols[i]) + len(t.rowLogs[i])
			}
		}
		if vol >= nc {
			for _, i32 := range t.rhoInd {
				i := int(i32)
				if ri := rho[i]; ri != 0 {
					t.scatterRowAlphaRaw(i, ri)
				}
			}
			t.collectTouched()
			return
		}
		for _, i32 := range t.rhoInd {
			i := int(i32)
			if ri := rho[i]; ri != 0 {
				t.scatterRowAlpha(i, ri)
			}
		}
		return
	}
	for i := 0; i < t.m; i++ {
		if rho[i] != 0 {
			vol += len(t.rowCols[i]) + len(t.rowLogs[i])
		}
	}
	if vol >= nc {
		for i := 0; i < t.m; i++ {
			if ri := rho[i]; ri != 0 {
				t.scatterRowAlphaRaw(i, ri)
			}
		}
		t.collectTouched()
		return
	}
	for i := 0; i < t.m; i++ {
		if ri := rho[i]; ri != 0 {
			t.scatterRowAlpha(i, ri)
		}
	}
}

// alphaRun is one maximal run of consecutive columns sharing a coefficient
// within a row. Covering cuts are unions of job windows with small integer
// coverage levels, so a row's coefficient profile changes only at window
// boundaries: a cut spanning hundreds of slots compresses to a handful of
// runs, and the pivot-row scatter walks runs — one multiply plus a
// sequential block add — instead of streaming per-entry column indices and
// values from memory. Rows without consecutive structure degrade to
// length-1 runs, which costs the same entry walk as the uncompressed form.
type alphaRun struct {
	lo, ln int32
	val    float64
}

// compressRuns builds the run form of a normalized (strictly ascending,
// zero-free) row. Walking runs left to right reproduces the entry walk in
// the exact same column order, so the two forms are arithmetically
// interchangeable anywhere a row is accumulated.
func compressRuns(cols []int32, vals []float64) []alphaRun {
	runs := make([]alphaRun, 0, 8)
	for k := 0; k < len(cols); {
		j := k + 1
		for j < len(cols) && cols[j] == cols[j-1]+1 && vals[j] == vals[k] {
			j++
		}
		runs = append(runs, alphaRun{lo: cols[k], ln: int32(j - k), val: vals[k]})
		k = j
	}
	return runs
}

// scatterRowAlpha adds ri times row i's entries into the alpha accumulator.
func (t *revised) scatterRowAlpha(i int, ri float64) {
	alpha := t.alpha
	for _, rn := range t.rowRun[i] {
		x := ri * rn.val
		seg := alpha[rn.lo : rn.lo+rn.ln]
		base := rn.lo
		for k := range seg {
			if seg[k] == 0 {
				t.touched = append(t.touched, base+int32(k))
			}
			seg[k] += x
		}
	}
	for _, lc := range t.rowLogs[i] {
		if alpha[lc] == 0 {
			t.touched = append(t.touched, lc)
		}
		alpha[lc] += ri * t.logSign[lc-int32(t.n)]
	}
}

// scatterRowAlphaRaw is scatterRowAlpha without support tracking — a block
// add per run — for the column-dense mode; callers recover the support
// with collectTouched after the last row. (A run-boundary difference
// accumulator folded by one prefix sum would be asymptotically cheaper
// still, but reassociating the per-column additions perturbs alpha in
// final ulps, and the flip walk's magnitude tie-breaks are sensitive
// enough that the jitter measurably doubles pivot counts at T = 16384 —
// the entry-order block add is the fastest form that keeps the pivot
// sequence exactly.)
func (t *revised) scatterRowAlphaRaw(i int, ri float64) {
	alpha := t.alpha
	for _, rn := range t.rowRun[i] {
		x := ri * rn.val
		seg := alpha[rn.lo : rn.lo+rn.ln]
		for k := range seg {
			seg[k] += x
		}
	}
	ls, n := t.logSign, int32(t.n)
	for _, lc := range t.rowLogs[i] {
		alpha[lc] += ri * ls[lc-n]
	}
}

// collectTouched rebuilds t.touched as the ascending support of t.alpha.
func (t *revised) collectTouched() {
	for c, a := range t.alpha {
		if a != 0 {
			t.touched = append(t.touched, int32(c))
		}
	}
}

// clearAlpha zeroes the accumulator without applying it.
func (t *revised) clearAlpha() {
	for _, c := range t.touched {
		t.alpha[c] = 0
	}
	t.touched = t.touched[:0]
}

// applyPivot performs the basis change on (row, col): the entering column
// moves by delta in direction dir (+1 from its lower bound, -1 from its
// upper bound), every basic value is stepped, the factors absorb the
// entering column's spike, the persistent reduced-cost row is updated from the
// pre-pivot pivot row, and the leaving variable settles at its upper bound
// when toUpper is true, else at zero.
//
// t.w must hold the FTRAN of the entering column. When alphaReady is true
// the caller has already filled t.alpha/t.touched from the pivot row (the
// dual path computes it for the ratio test); otherwise applyPivot computes
// it with a BTRAN. Either way the accumulator is drained before returning.
func (t *revised) applyPivot(row, col int, dir, delta float64, toUpper bool, alphaReady bool) {
	if t.pivotHook != nil {
		t.pivotHook(row, col)
	}
	w := t.w[:t.m]
	if delta != 0 {
		if t.wSparse {
			for _, i32 := range t.wInd {
				i := int(i32)
				if i == row {
					continue
				}
				if wi := w[i]; wi != 0 {
					t.xB[i] -= dir * wi * delta
					t.noteDualRow(i)
				}
			}
		} else {
			for i := range w {
				if i == row {
					continue
				}
				if wi := w[i]; wi != 0 {
					t.xB[i] -= dir * wi * delta
					t.noteDualRow(i)
				}
			}
		}
	}
	enterVal := dir * delta
	if t.atUpper[col] {
		enterVal += t.upper[col]
	}

	if !alphaReady {
		t.btranRho(row)
		t.pivotRowAlpha()
	}
	if f := t.red[col]; f != 0 {
		scale := f / w[row]
		red := t.red
		for _, c := range t.touched {
			a := t.alpha[c]
			t.alpha[c] = 0
			red[c] -= scale * a
		}
		t.touched = t.touched[:0]
		red[col] = 0
	} else {
		t.clearAlpha()
	}

	// Maintain the dual pricing weights against the pre-pivot basis (t.w
	// and t.rho are both still pre-pivot here; the FG correction term
	// needs the old factors, so this must precede the factor update).
	t.updateWeights(row)

	// Record the basis change instead of a dense rank-one inverse update: a
	// Forrest–Tomlin in-place update of U consuming the spike the entering
	// FTRAN stashed — O(nnz(spike)) written, nothing of size m².
	forcedRefactor := false
	if !t.f.ftUpdate(row) {
		// The spike's eliminated diagonal failed the stability tolerance,
		// so the update refused and the factors still describe the
		// pre-pivot basis. Finish the basis bookkeeping, then refactorize
		// from the post-pivot basis below.
		t.kstats.ForcedRefactors++
		forcedRefactor = true
	}

	leave := t.basis[row]
	t.inBasis[leave] = false
	t.whereBasic[leave] = -1
	t.atUpper[leave] = toUpper
	t.basis[row] = col
	t.inBasis[col] = true
	t.whereBasic[col] = row
	t.atUpper[col] = false
	if enterVal < 0 && enterVal > -1e-7 {
		enterVal = 0
	}
	t.xB[row] = enterVal
	t.noteDualRow(row)
	t.pivots++
	t.sinceRefresh++
	// Fold the updated factors into a fresh LU before they accumulate fill
	// or drift (or immediately, when a stability-forced refactorization is
	// pending). The basis bookkeeping above is already final, so the
	// refactorization sees exactly the post-pivot basis. The basic values
	// and reduced costs are re-derived immediately: they carry the
	// update-era incremental state, and letting them disagree with the
	// fresh factors makes the dual ratio test chase phantom violations.
	if forcedRefactor || t.f.ftShouldFold() {
		if t.factorizeNow() {
			t.refreshRed()
		}
	}
}

// accumulateFlip records a bound flip of column col (moving by u in
// direction dir) in the row-space accumulator; applyFlips folds every
// recorded flip into the basic values with a single B⁻¹ application.
func (t *revised) accumulateFlip(col int, dir, u float64) {
	d := dir * u
	if col < t.n {
		rows, vals := t.colRows[col], t.colVals[col]
		for k, r := range rows {
			if t.flipAcc[r] == 0 {
				t.flipInd = append(t.flipInd, r)
			}
			t.flipAcc[r] += d * vals[k]
		}
		return
	}
	r := t.logRow[col-t.n]
	if t.flipAcc[r] == 0 {
		t.flipInd = append(t.flipInd, r)
	}
	t.flipAcc[r] += d * t.logSign[col-t.n]
}

// applyFlips applies xB -= B⁻¹·flipAcc with one FTRAN and clears the
// accumulator. The accumulated support rides along as the solve's
// right-hand-side pattern (flipSol keeps the all-zero invariant the sparse
// scatter needs; duplicate support entries from mid-walk cancellations are
// harmless everywhere they flow).
func (t *revised) applyFlips() {
	acc := t.flipAcc[:t.m]
	s := t.flipSol[:t.m]
	for _, r := range t.flipInd {
		// flipInd can list r twice when the accumulator passed through exact
		// zero mid-walk; the guard keeps a second visit from wiping the value
		// the first one already moved into s.
		if acc[r] != 0 {
			s[r] = acc[r]
			acc[r] = 0
		}
	}
	var sparse bool
	t.flipSolInd, sparse = t.f.ftranSparse(s, t.flipInd, t.flipSolInd[:0], ftranFlip)
	t.kstats.noteFtran(sparse, len(t.flipSolInd))
	if sparse {
		for _, i32 := range t.flipSolInd {
			i := int(i32)
			if si := s[i]; si != 0 {
				t.xB[i] -= si
				t.noteDualRow(i)
			}
			s[i] = 0
		}
	} else {
		for i := 0; i < t.m; i++ {
			if si := s[i]; si != 0 {
				t.xB[i] -= si
				t.noteDualRow(i)
			}
			s[i] = 0
		}
	}
	t.flipInd = t.flipInd[:0]
}

// boundFlip moves nonbasic column col across its (finite) range to the
// opposite bound without a basis change. t.w must hold the column's FTRAN.
func (t *revised) boundFlip(col int, dir float64) {
	if u := t.upper[col]; u > 0 {
		w := t.w[:t.m]
		if t.wSparse {
			for _, i32 := range t.wInd {
				if wi := w[i32]; wi != 0 {
					t.xB[i32] -= dir * wi * u
				}
			}
		} else {
			for i := range w {
				if wi := w[i]; wi != 0 {
					t.xB[i] -= dir * wi * u
				}
			}
		}
	}
	t.atUpper[col] = !t.atUpper[col]
}

// primalScore is a column's attractiveness under the current reduced
// costs: the rate of objective decrease per unit of movement off its bound.
// Zero (or negative) means the column may not enter.
func (t *revised) primalScore(j int, phase1 bool) float64 {
	if t.inBasis[j] || (!phase1 && t.isArt[j]) {
		return 0
	}
	if t.atUpper[j] {
		return t.red[j]
	}
	return -t.red[j]
}

// pickPartial is the partial-pricing entering-column choice: it first
// drains the managed candidate list — re-scoring each member against the
// live reduced costs, dropping the no-longer-attractive, and returning the
// best — and only when the list yields nothing does it refill by scanning
// columns cyclically from the rotor until candListMax fresh candidates are
// collected or the scan wraps. Steady-state pricing therefore touches a
// bounded window of columns per pivot instead of all of them, while the
// full-wrap-empty case is exactly full pricing's "no attractive column"
// conclusion, so optimality claims are unchanged (and are still confirmed
// against a fresh reduced-cost row by the caller).
func (t *revised) pickPartial(phase1 bool) int {
	best, col := eps, -1
	out := 0
	for _, j32 := range t.candList {
		j := int(j32)
		s := t.primalScore(j, phase1)
		if s <= eps {
			continue
		}
		t.candList[out] = j32
		out++
		if s > best {
			best, col = s, j
		}
	}
	t.candList = t.candList[:out]
	if col >= 0 {
		return col
	}
	t.candList = t.candList[:0]
	ncols := len(t.red)
	j := t.candRotor
	if j >= ncols {
		j = 0
	}
	for scanned := 0; scanned < ncols && len(t.candList) < candListMax; scanned++ {
		if s := t.primalScore(j, phase1); s > eps {
			t.candList = append(t.candList, int32(j))
			if s > best {
				best, col = s, j
			}
		}
		j++
		if j == ncols {
			j = 0
		}
	}
	t.candRotor = j
	return col
}

// primalIterate runs bounded-variable primal simplex iterations with the
// current phase's cost vector until optimal, unbounded, or the pivot budget
// is exhausted. Outside phase 1, artificial columns may not enter.
func (t *revised) primalIterate(phase1 bool, budget *int) Status {
	t.setPhaseCost(phase1)
	t.refreshRed()
	t.ensureWeights()
	blandFrom := *budget / 2 // switch to Bland's rule for the second half
	for iter := 0; ; iter++ {
		if *budget <= 0 || t.broken {
			return IterLimit
		}
		*budget--
		if t.sinceRefresh >= refreshEvery {
			t.refreshRed()
		}
		red := t.red
		col := -1
		if iter >= blandFrom {
			for j := range red {
				if t.inBasis[j] || (!phase1 && t.isArt[j]) {
					continue
				}
				if t.atUpper[j] {
					if red[j] > eps {
						col = j
						break
					}
				} else if red[j] < -eps {
					col = j
					break
				}
			}
		} else {
			col = t.pickPartial(phase1)
		}
		if col < 0 {
			// Never certify optimality against a stale reduced-cost row:
			// refresh and re-price once if any pivots happened since the
			// last full recompute (refreshRed zeroes sinceRefresh, so this
			// retries at most once per pivot).
			if t.sinceRefresh > 0 {
				t.refreshRed()
				continue
			}
			return Optimal
		}
		dir := 1.0
		if t.atUpper[col] {
			dir = -1.0
		}
		t.ftran(col)
		w := t.w[:t.m]
		// Ratio test over basic bounds, capped by the entering variable's
		// own range (a bound flip).
		row := -1
		toUpper := false
		bestRatio := t.upper[col]
		for i := range w {
			wi := dir * w[i]
			if wi > eps {
				ratio := t.xB[i] / wi
				if ratio < 0 {
					ratio = 0
				}
				if ratio < bestRatio-eps ||
					(ratio < bestRatio+eps && row >= 0 && t.basis[i] < t.basis[row]) {
					row, bestRatio, toUpper = i, ratio, false
				}
			} else if wi < -eps {
				ub := t.upper[t.basis[i]]
				if math.IsInf(ub, 1) {
					continue
				}
				ratio := (ub - t.xB[i]) / -wi
				if ratio < 0 {
					ratio = 0
				}
				if ratio < bestRatio-eps ||
					(ratio < bestRatio+eps && row >= 0 && t.basis[i] < t.basis[row]) {
					row, bestRatio, toUpper = i, ratio, true
				}
			}
		}
		if row < 0 {
			if math.IsInf(bestRatio, 1) {
				return Unbounded
			}
			t.boundFlip(col, dir)
			continue
		}
		t.applyPivot(row, col, dir, bestRatio, toUpper, false)
	}
}

// dualViolation reports position i's bound violation magnitude (zero when
// within bounds) and whether the violation is above the upper bound.
func (t *revised) dualViolation(i int) (float64, bool) {
	v := t.xB[i]
	if v < -1e-7 {
		return -v, false
	}
	if ub := t.upper[t.basis[i]]; !math.IsInf(ub, 1) && v-ub > 1e-7 {
		return v - ub, true
	}
	return 0, false
}

// noteDualRow adds basis position i to the dual working set when its basic
// value violates a bound and it is not already listed. Every code path that
// changes an xB entry during dual iteration calls it, which preserves the
// working-set invariant behind rowListOK. Both kernel paths visit changed
// positions in ascending order and gate on the same numeric nonzero tests,
// so the list contents — and therefore the pivot sequence — are identical
// whichever path produced the update.
func (t *revised) noteDualRow(i int) {
	if !t.rowListOK || t.inRowList[i] {
		return
	}
	if viol, _ := t.dualViolation(i); viol == 0 {
		return
	}
	t.inRowList[i] = true
	t.rowList = append(t.rowList, int32(i))
}

// refillDualRows rebuilds the working set with one full ascending sweep,
// listing every violated position. An empty refill is the "no violated row"
// conclusion, identical to the full sweep it replaces.
func (t *revised) refillDualRows() int {
	for _, i32 := range t.rowList {
		t.inRowList[i32] = false
	}
	t.rowList = t.rowList[:0]
	for i := 0; i < t.m; i++ {
		if viol, _ := t.dualViolation(i); viol != 0 {
			t.inRowList[i] = true
			t.rowList = append(t.rowList, int32(i))
		}
	}
	t.rowListOK = true
	t.kstats.RowRefills++
	return len(t.rowList)
}

// pickDualRow is the working-set leaving-row choice outside the Bland
// regime: it drains the listed candidates — re-checking each
// against the live basic values, dropping the repaired — and returns the
// one maximizing violation²/weight (the dual steepest-edge score, ties to
// the lowest position). Because refills list every violated position and
// noteDualRow keeps the list complete across basic-value updates, the
// choice — and hence the whole pivot sequence — is exactly the full
// sweep's, while steady-state selection cost is O(|violated positions|),
// not O(m): on the covering masters a pivot repairs most of what it
// touches, so the drained list collapses to a handful of live cut rows
// between refills.
func (t *revised) pickDualRow() (int, bool) {
	for {
		if !t.rowListOK {
			if t.refillDualRows() == 0 {
				return -1, false
			}
		}
		best, row, above := 0.0, -1, false
		out := 0
		for _, i32 := range t.rowList {
			i := int(i32)
			viol, ab := t.dualViolation(i)
			if viol == 0 {
				t.inRowList[i] = false
				continue
			}
			t.rowList[out] = i32
			out++
			if score := viol * viol / t.dseW[i]; score > best || (score == best && row >= 0 && i < row) {
				best, row, above = score, i, ab
			}
		}
		t.rowList = t.rowList[:out]
		if row >= 0 {
			return row, above
		}
		// Every member was repaired since it was listed; refill from the
		// rotor (a refill that finds nothing ends the loop above).
		t.rowListOK = false
	}
}

// dualIterate restores primal feasibility (basic values pushed outside
// their bounds by newly appended rows) while maintaining dual feasibility,
// using the bounded-variable dual simplex. It assumes the state was optimal
// before the rows were appended. A pivot may land the entering variable
// beyond its own finite bound; that surfaces as a fresh infeasibility
// repaired by a later iteration. Like the primal loop, it falls back from
// most-infeasible-row selection to lowest-index selection for the second
// half of the pivot budget as an anti-cycling safeguard.
//
// A conclusion of Infeasible is never accepted from drifted state: the
// engine refactorizes the basis inverse, resyncs basic values and reduced
// costs, and re-tries once before reporting it.
func (t *revised) dualIterate(budget *int) Status {
	t.setPhaseCost(false)
	t.refreshRed()
	t.ensureWeights()
	blandFrom := *budget / 2
	resynced := false
	for iter := 0; ; iter++ {
		if *budget <= 0 || t.broken {
			return IterLimit
		}
		*budget--
		if t.sinceRefresh >= refreshEvery {
			t.refreshRed()
		}
		// Leaving row: the basic variable maximizing violation²/weight —
		// the dual steepest-edge criterion, which measures each violation
		// in the geometry of the dual edge the pivot would traverse instead
		// of raw units; on dual-degenerate covering masters that takes far
		// fewer (and better-conditioned) pivots than most-infeasible
		// selection. The Bland regime takes the lowest-index violated
		// position instead.
		row := -1
		above := false
		if iter < blandFrom {
			row, above = t.pickDualRow()
		} else {
			for i := 0; i < t.m; i++ {
				v := t.xB[i]
				if -v > 1e-7 {
					row, above = i, false
					break
				}
				if ub := t.upper[t.basis[i]]; !math.IsInf(ub, 1) && v-ub > 1e-7 {
					row, above = i, true
					break
				}
			}
		}
		if row < 0 {
			return Optimal
		}
		sign := 1.0
		if above {
			sign = -1.0
		}
		t.btranRho(row)
		t.pivotRowAlpha()
		// Entering: bounded dual ratio test with bound flips. Candidates
		// are visited in increasing dual-ratio order (ties by column index,
		// for determinism and Bland-style safety); a candidate whose own
		// finite range cannot absorb the remaining violation is flipped
		// across its bounds — no basis change, its dual price has crossed
		// its ratio so the opposite bound is the dual-feasible one — and
		// the first candidate that can absorb the rest becomes the pivot.
		// Without the flips, an entering variable overrunning its bound
		// lands infeasible, leaves again next iteration, and the pair
		// ping-pongs for the rest of the budget on degenerate covering
		// masters.
		red := t.red
		cands := t.cands[:0]
		for _, j32 := range t.touched {
			j := int(j32)
			if t.inBasis[j] || t.isArt[j] {
				continue
			}
			a := sign * t.alpha[j]
			var ratio float64
			if t.atUpper[j] {
				if a <= pivTol {
					continue
				}
				ratio = -red[j] / a
			} else {
				if a >= -pivTol {
					continue
				}
				ratio = red[j] / -a
			}
			if ratio < 0 {
				ratio = 0
			}
			cands = append(cands, dualCand{col: int32(j), ratio: ratio, mag: math.Abs(a)})
		}
		t.cands = cands
		// Candidates are consumed in increasing dual-ratio order. Covering
		// masters are massively dual degenerate — at an integral optimum
		// most reduced costs are exactly zero, so whole swathes of
		// candidates tie at ratio zero. Within a ratio tie the walk prefers
		// the largest pivot magnitude (Harris-style): each flipped
		// candidate then absorbs the most violation per flip and the
		// eventual pivot element is large. Breaking ties by column index
		// instead sends the walk through long chains of dual-progress-free
		// flips that reshuffle every overlapping cut row — measured on the
		// T=4096 scaling family, that turned warm dual repairs of ~10²
		// pivots into 10⁴-pivot infeasibility storms.
		//
		// The order is realized lazily through a binary heap rather than a
		// full sort: the walk usually consumes a handful of the thousands
		// of candidates a wide pivot row yields, so heapify-plus-pops costs
		// O(k + consumed·log k) where the former full sort paid O(k·log k)
		// on every pivot — at T = 8192 that sort alone was ~a fifth of the
		// whole solve. Pop order is identical to the sorted order, so the
		// pivot sequence is unchanged.
		heapifyDualCands(cands)
		target := 0.0
		if above {
			target = t.upper[t.basis[row]]
		}
		col := -1
		var colDir float64
		flips := 0
		xrow := t.xB[row] // tracked analytically across flips via alpha
		for len(cands) > 0 {
			cd := cands[0]
			last := len(cands) - 1
			cands[0] = cands[last]
			cands = cands[:last]
			siftDualCand(cands, 0)
			j := int(cd.col)
			// Re-check eligibility against live bound state: t.touched can
			// list a column twice (its alpha cancelled to zero mid-sweep and
			// was re-added), and a candidate flipped earlier in this walk
			// must not be processed again — its reversed direction would
			// produce a degenerate pivot that snaps the still-violated
			// leaving variable to its bound without the compensating step.
			a := sign * t.alpha[j]
			var dir float64
			if t.atUpper[j] {
				if a <= pivTol {
					continue
				}
				dir = -1.0
			} else {
				if a >= -pivTol {
					continue
				}
				dir = 1.0
			}
			// Step the entering variable would need for a full repair; its
			// alpha is unchanged by earlier flips, only xB[row] moves.
			need := (xrow - target) / (dir * t.alpha[j])
			if u := t.upper[j]; u > 0 && !math.IsInf(u, 1) && need > u {
				// Flip: record the bound change and its row-space effect;
				// the combined basic-value update is applied once after the
				// walk, so a walk of k flips costs O(Σ nnz(A_j)) + one
				// O(m²) pass instead of k FTRANs.
				t.accumulateFlip(j, dir, u)
				t.atUpper[j] = !t.atUpper[j]
				xrow -= dir * u * t.alpha[j]
				flips++
				continue
			}
			col, colDir = j, dir
			break
		}
		if flips > 0 {
			t.applyFlips()
		}
		if col < 0 {
			t.clearAlpha()
			// Refactorize and resync before believing drifted state; the
			// retry re-enters the loop with clean numbers. A failed
			// refactorization leaves nothing to certify infeasibility with.
			if !resynced && t.resync() {
				resynced = true
				continue
			}
			if t.broken {
				return IterLimit
			}
			return Infeasible
		}
		delta := (t.xB[row] - target) / (colDir * t.alpha[col])
		if delta < 0 {
			delta = 0
		}
		t.ftran(col)
		t.applyPivot(row, col, colDir, delta, above, true)
	}
}

// coldSolve builds a fresh engine state for p and solves from scratch.
// It first tries the dual-feasible cold start: when every negative-cost structural column has a finite
// upper bound, resting each structural on the bound its cost sign prefers
// makes the all-logical basis (slack for LE, surplus for GE, the
// artificial pinned to [0,0] as an exact equality slack for EQ) dual
// feasible outright, and the bounded dual simplex drives the primal
// violations out with no phase 1, no artificial costs, and — the
// all-logical basis being a signed permutation — an exactly initialized
// steepest-edge weight set. Covering masters are the textbook case:
// minimize Σy over y ≤ 1 with a·y ≥ b rows is dual feasible at y = 0.
//
// Only a verified-able Optimal is accepted from that start: any other
// verdict — in particular an Infeasible claim, which from the float dual
// simplex can be a pivot-tolerance artifact — is re-derived on a fresh
// state by the classic two-phase solve, whose phase-1 verdict remains the
// engine's only cold infeasibility certificate. The discarded attempt's
// pivots still count toward the returned state's per-call totals. When
// some negative-cost column needs its infinite bound, two-phase runs
// directly.
func coldSolve(p *Problem, budget *int) (*revised, Status) {
	t := newRevised(p)
	if t.dualColdStart() {
		st := t.dualIterate(budget)
		if st == Optimal {
			st = t.primalIterate(false, budget)
		}
		if st == Optimal {
			return t, st
		}
		spentPivots, spentRefactors := t.pivots, t.refactors
		spentKernel := t.kstats
		t = newRevised(p)
		t.pivotsAtCall = -spentPivots
		t.refactorsAtCall = -spentRefactors
		t.kstatsAtCall = KernelStats{}.minus(spentKernel)
	}
	return t, t.runTwoPhase(budget)
}

// dualColdStart installs the dual-feasible all-logical starting basis
// described at runCold, reporting false (with the state untouched) when a
// negative-cost column's infinite upper bound makes it inapplicable.
func (t *revised) dualColdStart() bool {
	for j := 0; j < t.n; j++ {
		if t.cost[j] < 0 && math.IsInf(t.upper[j], 1) {
			return false
		}
	}
	for r := 0; r < t.m; r++ {
		logs := t.rowLogs[r]
		bas := int(logs[0])
		for _, lc := range logs {
			if !t.isArt[lc] {
				bas = int(lc)
				break
			}
		}
		if t.isArt[bas] {
			// An EQ row's artificial is its pinned slack: forcing it back
			// into [0,0] is exactly the equality.
			t.upper[bas] = 0
		}
		old := t.basis[r]
		if old != bas {
			t.inBasis[old] = false
			t.whereBasic[old] = -1
			t.atUpper[old] = false
			t.basis[r] = bas
			t.inBasis[bas] = true
			t.whereBasic[bas] = r
		}
	}
	for j := 0; j < t.n; j++ {
		t.atUpper[j] = t.cost[j] < 0
	}
	// The installed basis is a signed permutation: every inverse row has
	// norm exactly 1, so the weight set starts exact.
	for i := range t.dseW {
		t.dseW[i] = 1
	}
	t.dseStale = false
	t.factorStale = true
	return true
}

// runTwoPhase executes the cold two-phase solve.
func (t *revised) runTwoPhase(budget *int) Status {
	hasArt := false
	for j := range t.isArt {
		if t.isArt[j] {
			hasArt = true
			break
		}
	}
	if hasArt {
		st := t.primalIterate(true, budget)
		if st != Optimal {
			return st
		}
		// Infeasible if any artificial remains basic at positive value.
		var artSum float64
		for i := 0; i < t.m; i++ {
			if t.isArt[t.basis[i]] {
				artSum += t.xB[i]
			}
		}
		if artSum > 1e-7 {
			return Infeasible
		}
		t.driveOutArtificials()
	}
	return t.primalIterate(false, budget)
}

// driveOutArtificials removes zero-valued artificials from the basis after
// phase 1 via degenerate swaps (the point does not move: the entering
// column keeps its current bound value). A row with no eligible entering
// column is linearly dependent on the others; its artificial stays basic
// with its bound pinned to [0,0], which keeps the basis square while
// enforcing the redundant constraint exactly.
func (t *revised) driveOutArtificials() {
	for i := 0; i < t.m; i++ {
		if !t.isArt[t.basis[i]] {
			continue
		}
		t.btranRho(i)
		t.pivotRowAlpha()
		slices.Sort(t.touched)
		col := -1
		for _, j32 := range t.touched {
			j := int(j32)
			if t.isArt[j] || t.inBasis[j] {
				continue
			}
			if a := t.alpha[j]; a > eps || a < -eps {
				col = j
				break
			}
		}
		if col < 0 {
			t.clearAlpha()
			t.upper[t.basis[i]] = 0 // redundant row
			continue
		}
		t.ftran(col)
		t.applyPivot(i, col, 1, 0, false, true)
	}
}

// resync refactorizes the basis from scratch — the Forrest–Tomlin updates,
// the carrier of all accumulated update error, are dropped and the LU
// rebuilt from the basis columns — then recomputes every basic value and
// the reduced-cost row from the fresh factors. It reports false when the basis matrix is numerically
// singular (the state is then broken and only IterLimit may be reported).
func (t *revised) resync() bool {
	if !t.factorizeNow() {
		return false
	}
	t.refreshRed() // also re-derives xB from the fresh factors
	return true
}

// verifyOptimal confirms a claimed optimum against the problem data itself:
// the structural point must satisfy every constraint row of p within an
// absolute 1e-6 and every basic value its bounds. The check is ground
// truth — it reads the caller's rows, not any engine state derived from
// the (possibly drifted) inverse. On violation the engine refactorizes the
// basis, resyncs, and re-optimizes, a bounded number of times; persistent
// failure is reported as IterLimit so no caller ever consumes an
// infeasible "optimum" (the warm path then falls back to a cold solve).
func (t *revised) verifyOptimal(p *Problem, budget *int) Status {
	for tries := 0; ; tries++ {
		if t.consistent(p, 1e-6) {
			return Optimal
		}
		if tries == 2 || !t.resync() {
			return IterLimit
		}
		st := t.dualIterate(budget)
		if st == Optimal {
			st = t.primalIterate(false, budget)
		}
		if st != Optimal {
			return st
		}
	}
}

// consistent reports whether the current point satisfies the problem's
// rows and the basic variables their bounds, all within tol.
func (t *revised) consistent(p *Problem, tol float64) bool {
	for i := 0; i < t.m; i++ {
		v := t.xB[i]
		if v < -tol {
			return false
		}
		if ub := t.upper[t.basis[i]]; v > ub+tol {
			return false
		}
	}
	x := t.structuralX()
	for i, row := range p.rows {
		ax := 0.0
		for _, e := range row {
			ax += e.val * x[e.col]
		}
		switch p.rel[i] {
		case LE:
			if ax > p.b[i]+tol {
				return false
			}
		case GE:
			if ax < p.b[i]-tol {
				return false
			}
		case EQ:
			if math.Abs(ax-p.b[i]) > tol {
				return false
			}
		}
	}
	return true
}

// refreshXB recomputes every basic value from the inverse:
// x_B = B⁻¹·(rhs − Σ_{j nonbasic at upper} A_j·u_j).
func (t *revised) refreshXB() {
	m := t.m
	r := t.y[:m] // scratch; refreshRed reloads it before use
	copy(r, t.rhs)
	for j, up := range t.atUpper {
		if !up || t.inBasis[j] {
			continue
		}
		u := t.upper[j]
		if u == 0 {
			continue
		}
		if j < t.n {
			rows, vals := t.colRows[j], t.colVals[j]
			for k, ri := range rows {
				r[ri] -= vals[k] * u
			}
		} else {
			r[t.logRow[j-t.n]] -= t.logSign[j-t.n] * u
		}
	}
	t.f.ftran(r) // dense by design: the bound-adjusted rhs is dense
	t.kstats.noteFtran(false, 0)
	for i := 0; i < m; i++ {
		s := r[i]
		if s < 0 && s > -1e-9 {
			s = 0
		}
		t.xB[i] = s
	}
	// Basic values were re-derived wholesale; the dual working set must be
	// rebuilt before its invariant can be trusted again.
	t.rowListOK = false
}

// growCols appends k fresh logical column slots (zero cost, +Inf bound,
// nonbasic at lower) to the per-column state, reusing slice capacity when
// available so repeated cut appends amortize.
func (t *revised) growCols(k int) {
	old := len(t.cost)
	nt := old + k
	growF := func(s []float64, fill float64) []float64 {
		if cap(s) < nt {
			s2 := make([]float64, len(s), nt+nt/4+16)
			copy(s2, s)
			s = s2
		}
		s = s[:nt]
		for j := old; j < nt; j++ {
			s[j] = fill
		}
		return s
	}
	growB := func(s []bool) []bool {
		if cap(s) < nt {
			s2 := make([]bool, len(s), nt+nt/4+16)
			copy(s2, s)
			s = s2
		}
		s = s[:nt]
		for j := old; j < nt; j++ {
			s[j] = false
		}
		return s
	}
	t.cost = growF(t.cost, 0)
	t.upper = growF(t.upper, math.Inf(1))
	t.curCost = growF(t.curCost, 0)
	t.red = growF(t.red, 0)
	t.alpha = growF(t.alpha, 0)
	t.atUpper = growB(t.atUpper)
	t.isArt = growB(t.isArt)
	t.inBasis = growB(t.inBasis)
	if cap(t.whereBasic) < nt {
		s2 := make([]int, len(t.whereBasic), nt+nt/4+16)
		copy(s2, t.whereBasic)
		t.whereBasic = s2
	}
	t.whereBasic = t.whereBasic[:nt]
	for j := old; j < nt; j++ {
		t.whereBasic[j] = -1
	}
}

// growRows makes room for one more row: the row-sized scratch vectors are
// extended (the factorization is rebuilt at the new dimension separately).
func (t *revised) growRows() {
	nm := t.m + 1
	growF := func(s []float64) []float64 {
		if cap(s) < nm {
			s2 := make([]float64, len(s), nm+nm/4+16)
			copy(s2, s)
			s = s2
		}
		return s[:nm]
	}
	t.w = growF(t.w)
	t.rho = growF(t.rho)
	t.y = growF(t.y)
	t.flipAcc = growF(t.flipAcc)
	t.flipSol = growF(t.flipSol)
	t.tau = growF(t.tau)
	if cap(t.inRowList) < nm {
		s2 := make([]bool, len(t.inRowList), nm+nm/4+16)
		copy(s2, t.inRowList)
		t.inRowList = s2
	}
	t.inRowList = t.inRowList[:nm]
	t.inRowList[nm-1] = false
	t.invalidateKernel()
}

// appendProblemCols incorporates structural columns added to the problem
// since the state was last solved (Problem.AddColumns). The per-column
// arrays keep structural columns first, so the whole logical block shifts
// up by k and every absolute logical column index (basis entries, per-row
// rowLogs) is remapped; logRow/logSign are indexed relative to n and need
// no rewrite. The new columns enter nonbasic at their lower bound with the
// bounds and costs the caller shaped after AddColumns; their reduced costs
// are derived from the persistent dual row at the refactorization this
// splice schedules (factorStale), so the next dual/primal pass prices them
// exactly — a new column appearing in no tight row simply keeps red = c_j,
// and one that prices attractively is entered by the primal clean-up.
// Nothing in row space moves: basic values, pricing weights and the dual
// working set stay valid; only the column-indexed pricing scratch restarts.
func (t *revised) appendProblemCols(p *Problem) {
	k := p.numVars - t.n
	if k <= 0 {
		return
	}
	oldN := t.n
	oldTotal := len(t.cost)
	t.growCols(k)
	// Shift the logical block [oldN, oldTotal) up by k, highest first so the
	// ranges may overlap. alpha is invariantly zero between pivots, so the
	// shifted region needs no copy there.
	for j := oldTotal - 1; j >= oldN; j-- {
		d := j + k
		t.cost[d] = t.cost[j]
		t.upper[d] = t.upper[j]
		t.curCost[d] = t.curCost[j]
		t.red[d] = t.red[j]
		t.atUpper[d] = t.atUpper[j]
		t.isArt[d] = t.isArt[j]
		t.inBasis[d] = t.inBasis[j]
		t.whereBasic[d] = t.whereBasic[j]
	}
	for j := oldN; j < oldN+k; j++ {
		t.cost[j] = p.c[j]
		u := math.Inf(1)
		if p.upper != nil {
			u = p.upper[j]
		}
		t.upper[j] = u
		t.curCost[j] = 0
		t.red[j] = 0
		t.atUpper[j] = false
		t.isArt[j] = false
		t.inBasis[j] = false
		t.whereBasic[j] = -1
		t.probUpper = append(t.probUpper, u)
	}
	t.colRows = append(t.colRows, make([][]int32, k)...)
	t.colVals = append(t.colVals, make([][]float64, k)...)
	for i := range t.basis {
		if t.basis[i] >= oldN {
			t.basis[i] += k
		}
	}
	for _, logs := range t.rowLogs {
		for idx := range logs {
			logs[idx] += int32(k) // every rowLogs entry is a logical column
		}
	}
	t.n = p.numVars
	// Column indices shifted: the partial-pricing candidate list and the
	// touched-column scratch may hold stale indices.
	t.candList = t.candList[:0]
	t.candRotor = 0
	t.touched = t.touched[:0]
	t.factorStale = true
}

// appendProblemRows incorporates rows added to the problem since the state
// was last solved. Each row gets a fresh slack column that enters the basis
// immediately, with its value computed from the current structural point,
// so a violated cut simply surfaces as a bound-infeasible basic slack for
// the dual simplex to repair. Appended rows are stored verbatim and the
// factorization is rebuilt once at the new dimension before the next solve
// — appends introduce no compounding transformation error.
func (t *revised) appendProblemRows(p *Problem) {
	if t.rowsBuilt == len(p.rows) {
		return
	}
	xs := t.structuralX()
	for r := t.rowsBuilt; r < len(p.rows); r++ {
		t.appendRow(p.rows[r], p.rel[r], p.b[r], xs)
	}
	t.rowsBuilt = len(p.rows)
	t.factorStale = true
}

func (t *revised) appendRow(row []entry, rel Relation, b float64, xs []float64) {
	sign := 1.0
	if rel == GE {
		sign = -1.0 // negate so the slack keeps a +1 coefficient
	}
	cols, vals := normalizeEntries(row, sign)
	i := t.m
	s := len(t.cost)
	t.growCols(1)
	t.logRow = append(t.logRow, int32(i))
	t.logSign = append(t.logSign, 1)
	if rel == EQ {
		t.upper[s] = 0
	}
	t.rowCols = append(t.rowCols, cols)
	t.rowVals = append(t.rowVals, vals)
	t.rowRun = append(t.rowRun, compressRuns(cols, vals))
	t.rowLogs = append(t.rowLogs, []int32{int32(s)})
	t.rhs = append(t.rhs, sign*b)
	for k, c := range cols {
		// Grow column slices with explicit headroom: repeated cut appends
		// touch the same columns round after round, and Go's small-slice
		// doubling would reallocate on nearly every early append.
		if len(t.colRows[c]) == cap(t.colRows[c]) {
			nc := make([]int32, len(t.colRows[c]), 2*cap(t.colRows[c])+8)
			copy(nc, t.colRows[c])
			t.colRows[c] = nc
			nv := make([]float64, len(t.colVals[c]), cap(nc))
			copy(nv, t.colVals[c])
			t.colVals[c] = nv
		}
		t.colRows[c] = append(t.colRows[c], int32(i))
		t.colVals[c] = append(t.colVals[c], vals[k])
	}
	t.growRows()
	ax := 0.0
	for k, c := range cols {
		ax += vals[k] * xs[c]
	}
	t.xB = append(t.xB, sign*b-ax)
	t.basis = append(t.basis, s)
	t.probRow = append(t.probRow, int32(i))
	t.inBasis[s] = true
	t.whereBasic[s] = i
	t.dseW = append(t.dseW, -1) // priced lazily by ensureWeights
	t.m++
}

// removeRows excises the given problem rows from the live simplex state in
// place. Excision needs each row's slack/surplus/artificial column basic —
// for a zero-cost unit column e_r to be basic its dual price must be zero
// (red = 0 − y_r), so dropping constraint row r together with that basis
// member changes neither the remaining duals nor any remaining basic value,
// and the cofactor expansion of det(B) along the unit column shows the
// reduced basis stays nonsingular. The state is therefore still optimal for
// the reduced problem; only the factorization must be rebuilt, which the
// next solve does once.
//
// A row that is strictly slack at the current optimum always qualifies: a
// nonbasic logical rests at a bound (zero, or a pinned upper of zero), so a
// positive slack value forces the logical into the basis. When some dropped
// row is tight, relaxRows first pivots every dropped row's logical into the
// basis; a refused relaxation returns an error with the problem rows
// untouched and the basis still a valid warm start.
func (t *revised) removeRows(drop []int) error {
	// Validate every drop before mutating anything.
	deadProb := make([]bool, len(t.probRow))
	var rows []int32 // materialized engine rows to excise
	tight := false
	for _, pr := range drop {
		if pr < 0 || pr >= len(t.probRow) {
			return fmt.Errorf("lp: RemoveRows index %d out of range [0,%d)", pr, len(t.probRow))
		}
		if deadProb[pr] {
			continue
		}
		deadProb[pr] = true
		er := t.probRow[pr]
		if er < 0 {
			continue // presolved away: nothing materialized to excise
		}
		rows = append(rows, er)
		if t.basicLogical(er) < 0 {
			tight = true
		}
	}
	if tight {
		if err := t.relaxRows(rows); err != nil {
			return err
		}
	}
	deadRow := make([]bool, t.m)
	deadPos := make([]bool, t.m)
	deadCol := make([]bool, len(t.cost))
	for _, er := range rows {
		deadRow[er] = true
		deadPos[t.whereBasic[t.basicLogical(er)]] = true
		for _, lc := range t.rowLogs[er] {
			deadCol[int(lc)] = true
		}
	}

	m := t.m
	rowMap := make([]int32, m)
	nr := 0
	for r := 0; r < m; r++ {
		if deadRow[r] {
			rowMap[r] = -1
		} else {
			rowMap[r] = int32(nr)
			nr++
		}
	}
	nCols := len(t.cost)
	colMap := make([]int32, nCols)
	for j := 0; j < t.n; j++ {
		colMap[j] = int32(j)
	}
	nc := t.n
	for j := t.n; j < nCols; j++ {
		if deadCol[j] {
			colMap[j] = -1
		} else {
			colMap[j] = int32(nc)
			nc++
		}
	}

	// Row-indexed state (logical references remapped in place).
	nr = 0
	for r := 0; r < m; r++ {
		if deadRow[r] {
			continue
		}
		logs := t.rowLogs[r]
		for k, lc := range logs {
			logs[k] = colMap[lc]
		}
		t.rowCols[nr] = t.rowCols[r]
		t.rowVals[nr] = t.rowVals[r]
		t.rowRun[nr] = t.rowRun[r]
		t.rowLogs[nr] = logs
		t.rhs[nr] = t.rhs[r]
		nr++
	}
	t.rowCols = t.rowCols[:nr]
	t.rowVals = t.rowVals[:nr]
	t.rowRun = t.rowRun[:nr]
	t.rowLogs = t.rowLogs[:nr]
	t.rhs = t.rhs[:nr]

	// Per-structural-column row lists.
	for j := 0; j < t.n; j++ {
		rows, vals := t.colRows[j], t.colVals[j]
		out := 0
		for k, r := range rows {
			if nrr := rowMap[r]; nrr >= 0 {
				rows[out], vals[out] = nrr, vals[k]
				out++
			}
		}
		t.colRows[j] = rows[:out]
		t.colVals[j] = vals[:out]
	}

	// Logical-column state and every per-column array.
	nc = t.n
	for j := t.n; j < nCols; j++ {
		if deadCol[j] {
			continue
		}
		t.logRow[nc-t.n] = rowMap[t.logRow[j-t.n]]
		t.logSign[nc-t.n] = t.logSign[j-t.n]
		t.cost[nc] = t.cost[j]
		t.upper[nc] = t.upper[j]
		t.curCost[nc] = t.curCost[j]
		t.red[nc] = t.red[j]
		t.alpha[nc] = t.alpha[j]
		t.atUpper[nc] = t.atUpper[j]
		t.isArt[nc] = t.isArt[j]
		t.inBasis[nc] = t.inBasis[j]
		nc++
	}
	t.logRow = t.logRow[:nc-t.n]
	t.logSign = t.logSign[:nc-t.n]
	t.cost = t.cost[:nc]
	t.upper = t.upper[:nc]
	t.curCost = t.curCost[:nc]
	t.red = t.red[:nc]
	t.alpha = t.alpha[:nc]
	t.atUpper = t.atUpper[:nc]
	t.isArt = t.isArt[:nc]
	t.inBasis = t.inBasis[:nc]

	// Basis positions: drop the removed rows' basic logicals, keep every
	// surviving basic value bit-for-bit. Pricing weights compact the same
	// way and stay exact: with the dead position holding a unit column,
	// the inverse is block triangular and each surviving row of the
	// reduced inverse is the old row restricted to surviving columns,
	// whose extra entries were all zero — the norms do not change.
	np := 0
	for p := 0; p < m; p++ {
		if deadPos[p] {
			continue
		}
		t.basis[np] = int(colMap[t.basis[p]])
		t.xB[np] = t.xB[p]
		t.dseW[np] = t.dseW[p]
		np++
	}
	t.basis = t.basis[:np]
	t.xB = t.xB[:np]
	t.dseW = t.dseW[:np]
	// Logical column indices shifted; the candidate list may hold stale
	// ones, so partial pricing restarts from an empty list. Basis positions
	// shifted too, so the dual working set and the kernel scratch supports
	// restart likewise.
	t.candList = t.candList[:0]
	t.candRotor = 0
	t.rowList = t.rowList[:0]
	for i := range t.inRowList {
		t.inRowList[i] = false
	}
	t.invalidateKernel()
	t.m = np
	t.whereBasic = t.whereBasic[:nc]
	for j := range t.whereBasic {
		t.whereBasic[j] = -1
	}
	for p, c := range t.basis {
		t.whereBasic[c] = p
	}

	// Problem-row mapping.
	npr := 0
	for pr := range t.probRow {
		if deadProb[pr] {
			continue
		}
		er := t.probRow[pr]
		if er >= 0 {
			er = rowMap[er]
		}
		t.probRow[npr] = er
		npr++
	}
	t.probRow = t.probRow[:npr]
	t.rowsBuilt = npr
	t.factorStale = true
	return nil
}

// basicLogical returns the basic logical column of engine row er, or -1
// when every logical of the row is nonbasic (the row is tight).
func (t *revised) basicLogical(er int32) int {
	for _, lc := range t.rowLogs[er] {
		if t.inBasis[int(lc)] {
			return int(lc)
		}
	}
	return -1
}

// relaxRows makes the given engine rows removable when some of them are
// tight. Each row's right-hand side moves to a value the row cannot bind at
// anywhere in the box: with the row's non-artificial logical
// l = σ(rhs − Σv·x), rhs becomes max_box Σv·x + 1 for σ = +1 and
// min_box Σv·x − 1 for σ = −1, so l ≥ 1 at every point and, at any optimum,
// l is basic. Every given row is relaxed, not only the tight ones, or the
// repair could make a slack one tight. A right-hand side change leaves the
// reduced costs untouched, so the state stays dual feasible and the same
// dual simplex the warm path runs, under the same budget, restores
// optimality. The pivots and refactorizations it spends are reported by the
// next ResolveFrom (callOpen).
//
// Refusals mutate nothing the caller can see: an equality row (no logical
// free to grow) and a row unbounded over the box are refused before any
// pivot; a repair that does not end Optimal restores the right-hand sides,
// which leaves a dual-feasible basis — a valid warm start.
func (t *revised) relaxRows(rows []int32) error {
	relaxed := make([]float64, len(rows))
	for k, er := range rows {
		sigma := 0.0
		for _, lc := range t.rowLogs[er] {
			if !t.isArt[lc] && math.IsInf(t.upper[lc], 1) {
				sigma = t.logSign[int(lc)-t.n]
			}
		}
		if sigma == 0 {
			return fmt.Errorf("lp: cannot relax a removed equality row; remove it with a nil basis and re-solve cold")
		}
		lo, hi := 0.0, 0.0
		for i, c := range t.rowCols[er] {
			if v := t.rowVals[er][i]; v > 0 {
				hi += v * t.upper[c]
			} else {
				lo += v * t.upper[c]
			}
		}
		if sigma > 0 {
			relaxed[k] = hi + 1
		} else {
			relaxed[k] = lo - 1
		}
		if math.IsInf(relaxed[k], 0) {
			return fmt.Errorf("lp: a removed row's relaxation is unbounded over the variable box; remove it with a nil basis and re-solve cold")
		}
	}
	if !t.callOpen {
		t.pivotsAtCall = t.pivots
		t.refactorsAtCall = t.refactors
		t.kstatsAtCall = t.kstats
		t.callOpen = true
	}
	saved := make([]float64, len(rows))
	for k, er := range rows {
		saved[k], t.rhs[er] = t.rhs[er], relaxed[k]
	}
	budget := 4*t.rowsBuilt + 400
	status := t.dualIterate(&budget)
	for _, er := range rows {
		if status == Optimal && t.basicLogical(er) < 0 {
			status = IterLimit // cannot happen at a true optimum; refuse rather than excise a tight row
		}
	}
	if status != Optimal {
		for k, er := range rows {
			t.rhs[er] = saved[k]
		}
		if t.ensureFactor() {
			t.refreshXB()
		}
		return fmt.Errorf("lp: repairing the relaxed rows ended %v; remove them with a nil basis and re-solve cold", status)
	}
	return nil
}

// newCrashRevised builds a fresh engine state for p whose starting basis is
// seeded ("crashed") from the surviving columns of a failed warm state:
// every structural column basic in the warm basis is installed as the basic
// column of its problem row's fresh engine row, warm rows resting on one of
// their logicals keep a non-artificial logical basic (surplus/slack role is
// preserved across the differing materializations — a warm-appended GE cut
// carries one slack on the negated row, the fresh build a surplus on the
// original, and both measure a·x − b), and nonbasic structural columns
// inherit their bound status. The fresh state shares none of the warm
// state's numerical history — the basis is factorized from verbatim rows —
// so it escapes whatever drift or budget exhaustion broke the warm solve
// while skipping the all-logical two-phase restart that would re-derive a
// near-identical basis one pivot at a time. Returns nil when the seeded
// basis is numerically singular; the caller then falls back to the plain
// two-phase cold solve.
func newCrashRevised(p *Problem, warm *revised) *revised {
	if warm == nil || warm.n != p.numVars || warm.rowsBuilt != len(p.rows) {
		return nil
	}
	t := newRevised(p)
	// Warm engine row -> problem row (warm rows can be a permuted subset
	// after earlier appends and removals; problem-row indices are the
	// shared coordinate system).
	rowOf := make([]int32, warm.m)
	for i := range rowOf {
		rowOf[i] = -1
	}
	for pr, er := range warm.probRow {
		if er >= 0 {
			rowOf[er] = int32(pr)
		}
	}
	for i := 0; i < warm.m; i++ {
		pr := rowOf[i]
		if pr < 0 {
			continue
		}
		er := int(t.probRow[pr])
		if er < 0 {
			continue // presolved away in the fresh build
		}
		wc := warm.basis[i]
		nc := wc
		if wc >= warm.n {
			// The warm row rested on one of its logicals; adopt the fresh
			// row's non-artificial logical (the artificial only for EQ
			// rows, whose sole logical it is).
			logs := t.rowLogs[er]
			nc = int(logs[0])
			for _, lc := range logs {
				if !t.isArt[lc] {
					nc = int(lc)
					break
				}
			}
		}
		old := t.basis[er]
		if nc == old || t.inBasis[nc] {
			continue
		}
		t.inBasis[old] = false
		t.whereBasic[old] = -1
		t.atUpper[old] = false
		t.basis[er] = nc
		t.inBasis[nc] = true
		t.whereBasic[nc] = er
	}
	for j := 0; j < t.n; j++ {
		if !t.inBasis[j] && !math.IsInf(t.upper[j], 1) {
			t.atUpper[j] = warm.atUpper[j] && !warm.inBasis[j]
		}
	}
	if !t.factorizeNow() {
		return nil
	}
	// A crash basis is not all-logical, so the steepest-edge weight set
	// cannot start exact; devex carries the pricing for this state.
	t.dseStale = true
	return t
}

// crashPrep readies a crash state for the dual simplex: with the phase-2
// reduced costs freshly derived, every nonbasic column with a finite upper
// bound is rested on its dual-feasible bound (red < 0 ⟹ upper, red > 0 ⟹
// lower — bound flips are free in bounded simplex), and the basic values
// are re-derived against the flipped bound states. Columns with infinite
// upper bounds and negative reduced costs remain dual infeasible; the
// primal clean-up pass after the dual repair absorbs them, and the verify
// layer guards the result like every other solve.
func (t *revised) crashPrep() {
	t.setPhaseCost(false)
	t.refreshRed()
	if t.broken {
		return
	}
	for j := range t.red {
		if t.inBasis[j] || t.isArt[j] || math.IsInf(t.upper[j], 1) {
			continue
		}
		if t.red[j] < -eps {
			t.atUpper[j] = true
		} else if t.red[j] > eps {
			t.atUpper[j] = false
		}
	}
	t.refreshXB()
}

// structuralX extracts the structural variable values from the basis and
// bound states.
func (t *revised) structuralX() []float64 {
	x := make([]float64, t.n)
	for j := 0; j < t.n; j++ {
		if t.atUpper[j] && !t.inBasis[j] {
			x[j] = t.upper[j]
		}
	}
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.n {
			x[t.basis[i]] = t.xB[i]
		}
	}
	for j := range x {
		if x[j] < 0 && x[j] > -1e-7 {
			x[j] = 0
		}
	}
	return x
}
