package flow

import (
	"math/rand"
	"slices"
	"testing"
)

// refMax is full-BFS Dinic, the algorithm Max is truncated from: every
// phase labels the whole residual network, and the DFS enters any node one
// level further on. It is kept as the reference for the flow-identity
// tests below, which require Max to route exactly the same flow.
func refMax[C Capacity](g *Network[C], s, t int) C {
	if s == t {
		return 0
	}
	g.ensureScratch()
	var total C
	for refBFS(g, s, t) {
		for i := range g.adj {
			g.iter[i] = 0
		}
		for {
			f := refAugment(g, s, t)
			if f <= g.eps {
				break
			}
			total += f
		}
	}
	return total
}

func refBFS[C Capacity](g *Network[C], s, t int) bool {
	level := g.level
	for i := range g.adj {
		level[i] = -1
	}
	queue := g.queue[:0]
	queue = append(queue, s)
	level[s] = 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, e := range g.adj[u] {
			if e.cap > g.eps && level[e.to] < 0 {
				level[e.to] = level[u] + 1
				queue = append(queue, e.to)
			}
		}
	}
	g.queue = queue
	return level[t] >= 0
}

func refAugment[C Capacity](g *Network[C], s, t int) C {
	path := g.path[:0]
	u := s
	for {
		if u == t {
			var bottle C
			for k, v := range path {
				c := g.adj[v][g.iter[v]].cap
				if k == 0 || c < bottle {
					bottle = c
				}
			}
			for _, v := range path {
				e := &g.adj[v][g.iter[v]]
				e.cap -= bottle
				g.adj[e.to][e.rev].cap += bottle
			}
			g.path = path
			return bottle
		}
		advanced := false
		for ; g.iter[u] < len(g.adj[u]); g.iter[u]++ {
			e := &g.adj[u][g.iter[u]]
			if e.cap > g.eps && g.level[e.to] == g.level[u]+1 {
				path = append(path, u)
				u = e.to
				advanced = true
				break
			}
		}
		if !advanced {
			g.level[u] = -2
			if u == s {
				g.path = path
				return 0
			}
			u = path[len(path)-1]
			path = path[:len(path)-1]
			g.iter[u]++
		}
	}
}

// twin applies every mutation to two networks built identically; got is
// solved with Max and ref with refMax.
type twin[C Capacity] struct {
	got, ref *Network[C]
	ids      []EdgeID[C]
}

func newTwin[C Capacity](n int, eps C) *twin[C] {
	return &twin[C]{got: NewNetwork[C](n, eps), ref: NewNetwork[C](n, eps)}
}

func (w *twin[C]) addNode() int {
	w.ref.AddNode()
	return w.got.AddNode()
}

func (w *twin[C]) addEdge(u, v int, c C) EdgeID[C] {
	w.ref.AddEdge(u, v, c)
	id := w.got.AddEdge(u, v, c)
	w.ids = append(w.ids, id)
	return id
}

func (w *twin[C]) setCapacityKeepFlow(id EdgeID[C], c C) C {
	w.ref.SetCapacityKeepFlow(id, c)
	return w.got.SetCapacityKeepFlow(id, c)
}

func (w *twin[C]) pushBack(id EdgeID[C], d C) {
	w.ref.PushBack(id, d)
	w.got.PushBack(id, d)
}

// solve runs both solvers and requires the same value, the same flow on
// every edge and the same minimum cut, compared exactly (a float64 flow
// that took a different path order differs in its low bits).
func (w *twin[C]) solve(t *testing.T, s, sink int, what string) {
	t.Helper()
	got, want := w.got.Max(s, sink), refMax(w.ref, s, sink)
	if got != want {
		t.Fatalf("%s: Max = %v, full-BFS Dinic = %v", what, got, want)
	}
	for k, id := range w.ids {
		if g, r := w.got.Flow(id), w.ref.Flow(id); g != r {
			t.Fatalf("%s: edge %d carries %v, full-BFS Dinic routes %v", what, k, g, r)
		}
	}
	if !slices.Equal(w.got.MinCutSource(s), w.ref.MinCutSource(s)) {
		t.Fatalf("%s: minimum cuts differ", what)
	}
}

// randomEdges adds m random arcs among nodes [0, n), cycles and
// antiparallel pairs included, so that augmenting paths of many lengths
// and nodes past the sink's level occur.
func randomEdges[C Capacity](w *twin[C], rng *rand.Rand, n, m int, capOf func(*rand.Rand) C) {
	for k := 0; k < m; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			w.addEdge(u, v, capOf(rng))
		}
	}
}

func intCap(rng *rand.Rand) int64 { return int64(rng.Intn(9)) }

func floatCap(rng *rand.Rand) float64 {
	if rng.Intn(6) == 0 {
		return 0
	}
	return 4 * rng.Float64()
}

// TestMaxMatchesFullBFSCold: on random networks, a from-zero solve routes
// exactly the flow of full-BFS Dinic.
func TestMaxMatchesFullBFSCold(t *testing.T) {
	testCold(t, 0, intCap)
	testCold(t, 1e-12, floatCap)
}

func testCold[C Capacity](t *testing.T, eps C, capOf func(*rand.Rand) C) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		w := newTwin(n, eps)
		randomEdges(w, rng, n, 1+rng.Intn(5*n), capOf)
		w.solve(t, 0, n-1, "cold")
	}
}

// TestMaxMatchesFullBFSGrowth follows the live-session pattern: nodes and
// edges join an already solved network and Max continues from the
// residual state, several times over.
func TestMaxMatchesFullBFSGrowth(t *testing.T) {
	testGrowth(t, 0, intCap)
	testGrowth(t, 1e-12, floatCap)
}

func testGrowth[C Capacity](t *testing.T, eps C, capOf func(*rand.Rand) C) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		w := newTwin(n, eps)
		randomEdges(w, rng, n, 1+rng.Intn(4*n), capOf)
		w.solve(t, 0, 1, "cold")
		for round := 0; round < 3; round++ {
			for k := rng.Intn(4); k > 0; k-- {
				n = w.addNode() + 1
			}
			randomEdges(w, rng, n, 1+rng.Intn(2*n), capOf)
			w.solve(t, 0, 1, "after growth")
		}
	}
}

// TestMaxMatchesFullBFSShrink follows the flow-carrying checker pattern on
// bipartite source→left→right→sink networks: capacities move up and down
// with SetCapacityKeepFlow, the excess of every decrease is cancelled
// along its length-3 paths with PushBack, and Max continues from the
// repaired flow.
func TestMaxMatchesFullBFSShrink(t *testing.T) {
	testShrink(t, 0, intCap)
	testShrink(t, 1e-12, floatCap)
}

func testShrink[C Capacity](t *testing.T, eps C, capOf func(*rand.Rand) C) {
	type arc struct {
		l, r int
		id   EdgeID[C]
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nl, nr := 2+rng.Intn(10), 2+rng.Intn(10)
		src, sink := 0, 1+nl+nr
		w := newTwin(sink+1, eps)
		supply := make([]EdgeID[C], nl)
		demand := make([]EdgeID[C], nr)
		for l := range supply {
			supply[l] = w.addEdge(src, 1+l, 2*capOf(rng))
		}
		for r := range demand {
			demand[r] = w.addEdge(1+nl+r, sink, 2*capOf(rng))
		}
		var arcs []arc
		for l := 0; l < nl; l++ {
			for r := 0; r < nr; r++ {
				if rng.Intn(3) > 0 {
					arcs = append(arcs, arc{l, r, w.addEdge(1+l, 1+nl+r, capOf(rng))})
				}
			}
		}
		if len(arcs) == 0 {
			continue
		}
		w.solve(t, src, sink, "cold")
		for round := 0; round < 6; round++ {
			for k := 1 + rng.Intn(4); k > 0; k-- {
				switch rng.Intn(3) {
				case 0: // supply edge: cancel along the left node's arcs
					l := rng.Intn(nl)
					ex := w.setCapacityKeepFlow(supply[l], capOf(rng))
					for _, a := range arcs {
						if f := w.got.Flow(a.id); a.l == l && ex > 0 && f > 0 {
							f = min(f, ex)
							w.pushBack(a.id, f)
							w.pushBack(demand[a.r], f)
							ex -= f
						}
					}
				case 1: // middle arc: cancel on both ends
					a := arcs[rng.Intn(len(arcs))]
					if ex := w.setCapacityKeepFlow(a.id, capOf(rng)); ex > 0 {
						w.pushBack(supply[a.l], ex)
						w.pushBack(demand[a.r], ex)
					}
				default: // sink edge: cancel along the right node's arcs
					r := rng.Intn(nr)
					ex := w.setCapacityKeepFlow(demand[r], capOf(rng))
					for _, a := range arcs {
						if f := w.got.Flow(a.id); a.r == r && ex > 0 && f > 0 {
							f = min(f, ex)
							w.pushBack(a.id, f)
							w.pushBack(supply[a.l], f)
							ex -= f
						}
					}
				}
			}
			w.solve(t, src, sink, "after re-capacitation")
		}
	}
}
