// Package repro is a from-scratch Go reproduction of
//
//	Jessica Chang, Samir Khuller, Koyel Mukherjee:
//	"LP Rounding and Combinatorial Algorithms for Minimizing Active and
//	Busy Time", SPAA 2014 (full version arXiv:1610.08154).
//
// The library implements every algorithm of the paper (minimal-feasible and
// LP-rounding active-time scheduling, GreedyTracking and the interval-job
// 2-approximation for busy time, the preemptive exact and 2-approximate
// algorithms), every substrate the paper depends on (max-flow feasibility
// oracle, a simplex LP solver, span minimization, exact baselines), every
// gadget family behind the paper's figures, and an experiment harness that
// regenerates each figure-level claim. See DESIGN.md for the inventory and
// EXPERIMENTS.md for the paper-vs-measured record.
//
// The Section-3 solve pipeline is fully incremental and scales to very
// large horizons: the simplex engine (internal/lp) is a sparse revised
// simplex whose basis lives in a factorized representation — a sparse LU
// (Markowitz-style ordering, threshold partial pivoting) maintained across
// pivots by Forrest–Tomlin updates: each basis change deletes the leaving
// column of U, appends the entering spike (captured for free during the
// entering-column FTRAN), and eliminates the resulting row bump into a
// short list of row etas, so FTRAN/BTRAN traverse only L, the updated U
// and those row etas — never a per-pivot-growing eta-file product. A spike
// whose eliminated diagonal falls below the pivot tolerance is refused and
// the post-pivot basis refactorized from scratch (ForcedRefactors);
// scheduled folds trigger on an update-count or updated-U fill bound.
// Around the factorization sit FTRAN/BTRAN solves in place of every
// inverse product, periodic refactorization, native variable upper bounds,
// warm-started re-solves from the previous optimal basis
// (Problem.ResolveFrom, bounded dual simplex with Harris-style tie-broken
// bound flips over newly appended cuts), and in-place removal of rows,
// tight ones pivoted slack first (Problem.RemoveRows). Pricing maintains
// Forrest–Goldfarb dual steepest-edge reference weights incrementally
// across every pivot, RemoveRows and refactorization — falling back to
// devex max-form updates when the weight set goes stale — prices the
// primal phase from a managed partial candidate list instead of full
// column scans, and enters cold solves directly dual feasible (no phase-1
// artificials) whenever the bound structure allows, which covering masters
// always do. This is the engine's one configuration: a product-form
// eta-file basis and Dantzig and devex pricing rules were measured against
// it by seed median on the scaling family and removed. A warm re-solve
// that fails re-enters
// through a crash basis seeded from the warm basis's surviving columns
// before anything pays a full cold solve, a claim of anything but a
// verified optimum still falls back to that cold solve, and the exact
// rational engine warm-starts the same way (ResolveExactFrom). The
// max-flow substrate (internal/flow) supports Reset/SetCapacity plus
// flow-preserving re-capacitation (SetCapacityKeepFlow/PushBack) so
// separation and feasibility networks are built once, and the Benders
// separation oracle carries its max flow across rounds: capacity decreases
// are repaired locally along the bipartite network's length-3 paths and
// Dinic augments only the difference. The cut generation in
// internal/activetime rides all of it: each round's single max-flow probe
// yields the global minimum cut plus per-deficient-job Hall violators —
// the per-job residual reachability walks fan out across goroutines on the
// settled flow, their harvest replayed in deterministic serial order so
// parallelism is invisible in the output — the per-round cut cap adapts to
// the horizon, and a cut registry tracks age and slack per cut — by complementary slackness, slack tracking is
// dual-activity tracking — purging persistently slack rows from the live
// master between rounds. The dense-inverse predecessor needed ~90 s for
// the T = 4096 scaling family and could not reach T = 16384 at all; the
// factorized, steepest-edge pipeline solves the former in well under a
// second of simplex work and now carries T = 16384 at the paper's
// canonical n = T/8 density — previously beyond a 50-minute budget —
// inside the CI scaling job (see ROADMAP for the measured record). One
// solver state, one separation network, and one feasibility checker per
// call are reused across every cut round, every rounding repair probe, and
// every exact branch-and-bound node. See the package comments of
// internal/lp and internal/flow for the exact warm-start, removal, reuse
// and pricing contracts, and experiments E17/E18 for the measured scaling
// records.
//
// The post-LP layer — rounding, minimal-feasible and the Theorem 1
// certificate — scales to the same horizons as the solver. The
// feasibility checker behind MinimalFeasible, IsMinimalFeasible, RoundLP's
// repair loop and the exact search is flow-carrying: one max flow survives
// every slot/job toggle (closing a flow-carrying slot cancels its length-3
// source→job→slot→sink paths and Dinic reroutes only the difference;
// zero-flow slots close for free), so a full closing sweep over T slots
// runs exactly one from-zero max flow — the ColdFlows counter that the
// scaling tests and the benchmark trajectory gate, deliberately instead of
// wall time. RoundLP's segment sweep accumulates slot mass with
// compensated (Kahan) summation and snaps against a scale-aware tolerance
// yEps·sqrt(T) (the solver's own per-entry noise grows like sqrt(T); a
// fixed epsilon misrounds integral parts at T = 32768), shared by the
// right-shift, the charging ledger and the certificate arithmetic, and
// reports per-phase timings plus the mass it could not place anywhere
// (DroppedMass, gated ≈ 0). Experiment E19 is the approximation-gap
// dashboard: every generator family × horizons up to 32768, LP value vs
// rounded vs minimal-feasible cost vs exact optimum where reachable
// (branch and bound at small T, the polynomial unit-job solver at every T),
// with every row re-asserting the Theorem 1/2 bounds and the
// incremental-flow contract; paperbench folds its digest into the
// committed, gate-checked BENCH_TRAJECTORY.json.
//
// Above the one-shot solvers sits a live-instance delta layer:
// activetime.Session keeps a solved LP1 master, its factorized basis, the
// cut registry and the separation network alive between solves, and
// patches all four in place as the instance changes. Session.AddJobs
// splices arrivals into the live master — new slot columns enter through
// lp.Problem.AddColumns (priced into the existing basis, no
// refactorization), new seed rows and separation-network arcs are
// appended, and the batch is validated against a prospective clone first
// so an infeasible arrival is rejected atomically. Session.RemoveJobs
// drops departures the same way: the registry's stored witnesses name
// exactly the rows touching a departed job, lp.Problem.RemoveRows excises
// them from the live state (a tight departed row is first relaxed and
// pivoted slack by the dual simplex), each dropped cut is replaced by its
// projection onto the surviving jobs, and the separation network detaches
// the jobs flow-preservingly (SetCapacityKeepFlow plus length-3-path
// PushBack cancellation) instead of being rebuilt; only a basis out of
// sync with unsolved edits, or a refused relaxation, drops the rows
// without the basis (the counted SessionStats.ColdRebuilds).
// Nothing in this layer may fail silently: a warm re-solve that abandons
// its basis is counted and its verdict recorded
// (LPResult.ColdFallbacks/FallbackVerdicts — the canonical scaling gates
// and the benchmark trajectory pin the count at zero), and the
// delta-vs-cold metamorphic suite plus FuzzInstanceDelta hold every
// patched re-solve to the cold optimum within 1e-6 across all generator
// families. Experiment E20 records the dividend — a small arrival batch
// at T = 4096 re-solves ≥ 5× cheaper in pivots than solving cold — and
// cmd/activeserve serves the whole layer over HTTP: per-tenant sessions
// behind context-aware locks, concurrent mutations coalesced into one
// batched re-solve per tenant (single-flight), results cached across
// tenants by instance fingerprint, per-request deadlines with typed
// overload/deadline/infeasible errors, and /metrics counters that surface
// every fallback and rebuild.
package repro
