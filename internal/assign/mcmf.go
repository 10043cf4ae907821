package assign

import "container/heap"

// MaxWeightBMatching solves the capacitated assignment problem exactly:
// worker i may take up to workerCap[i] tasks, task j has taskCap[j] slots,
// each (worker, task) pair is used at most once, and the total gain is
// maximised. Only strictly positive gains are ever matched. The result maps
// each matched pair to true.
//
// A slot-expanded Hungarian reduction would be *incorrect* for this
// problem — it can match the same worker to the same task through two
// different slots and count the gain twice — so the optimal
// requester-centric assigner uses this min-cost max-flow formulation:
// successive shortest augmenting paths on the residual graph with Johnson
// potentials (costs are negated gains, so Dijkstra applies after the first
// Bellman-Ford pass), stopping when no augmenting path has negative cost —
// i.e. exactly at the maximum-weight (not maximum-cardinality) matching.
func MaxWeightBMatching(gain [][]float64, workerCap, taskCap []int) map[[2]int]bool {
	nW := len(gain)
	if nW == 0 {
		return nil
	}
	nT := len(gain[0])

	// Node ids: 0 = source, 1..nW = workers, nW+1..nW+nT = tasks, last = sink.
	n := nW + nT + 2
	source, sink := 0, n-1

	type arc struct {
		to, rev int // rev indexes the reverse arc in graph[to]
		cap     int
		cost    float64
	}
	graph := make([][]arc, n)
	addArc := func(from, to, cap int, cost float64) {
		graph[from] = append(graph[from], arc{to: to, rev: len(graph[to]), cap: cap, cost: cost})
		graph[to] = append(graph[to], arc{to: from, rev: len(graph[from]) - 1, cap: 0, cost: -cost})
	}

	for i := 0; i < nW; i++ {
		if workerCap[i] > 0 {
			addArc(source, 1+i, workerCap[i], 0)
		}
	}
	for j := 0; j < nT; j++ {
		if taskCap[j] > 0 {
			addArc(1+nW+j, sink, taskCap[j], 0)
		}
	}
	for i := 0; i < nW; i++ {
		for j := 0; j < nT; j++ {
			if gain[i][j] > 0 {
				addArc(1+i, 1+nW+j, 1, -gain[i][j])
			}
		}
	}

	const inf = 1e18
	// Potentials start at 0: all source/sink arcs cost 0 and worker→task
	// arcs are only reachable through them, so an initial Bellman-Ford is
	// equivalent to one Dijkstra run with reduced costs clamped — but
	// negative arc costs make plain Dijkstra wrong on the first pass.
	// Run Bellman-Ford once to seed the potentials.
	pot := make([]float64, n)
	for i := range pot {
		pot[i] = inf
	}
	pot[source] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for u := 0; u < n; u++ {
			if pot[u] == inf {
				continue
			}
			for _, a := range graph[u] {
				if a.cap > 0 && pot[u]+a.cost < pot[a.to]-1e-12 {
					pot[a.to] = pot[u] + a.cost
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	for i := range pot {
		if pot[i] == inf {
			pot[i] = 0 // unreachable nodes get neutral potential
		}
	}

	dist := make([]float64, n)
	prevNode := make([]int, n)
	prevArc := make([]int, n)

	dijkstra := func() bool {
		for i := range dist {
			dist[i] = inf
			prevNode[i] = -1
		}
		dist[source] = 0
		pq := &nodeHeap{{node: source, dist: 0}}
		for pq.Len() > 0 {
			item := heap.Pop(pq).(nodeDist)
			u := item.node
			if item.dist > dist[u]+1e-12 {
				continue
			}
			for ai, a := range graph[u] {
				if a.cap <= 0 {
					continue
				}
				nd := dist[u] + a.cost + pot[u] - pot[a.to]
				if nd < dist[a.to]-1e-12 {
					dist[a.to] = nd
					prevNode[a.to] = u
					prevArc[a.to] = ai
					heap.Push(pq, nodeDist{node: a.to, dist: nd})
				}
			}
		}
		return dist[sink] < inf
	}

	for {
		if !dijkstra() {
			break
		}
		// Real path cost with potentials unwound; stop once augmenting no
		// longer improves the total weight.
		realCost := dist[sink] + pot[sink] - pot[source]
		if realCost >= -1e-12 {
			break
		}
		for i := 0; i < n; i++ {
			if dist[i] < inf {
				pot[i] += dist[i]
			}
		}
		// Augment one unit along the path (middle arcs have capacity 1).
		v := sink
		for v != source {
			u := graph[prevNode[v]][prevArc[v]]
			graph[prevNode[v]][prevArc[v]].cap--
			graph[v][u.rev].cap++
			v = prevNode[v]
		}
	}

	out := make(map[[2]int]bool)
	for i := 0; i < nW; i++ {
		for _, a := range graph[1+i] {
			// A saturated worker→task arc (cap 0 on a forward arc) is a match.
			if a.to >= 1+nW && a.to < 1+nW+nT && a.cap == 0 && a.cost < 0 {
				out[[2]int{i, a.to - 1 - nW}] = true
			}
		}
	}
	return out
}

// nodeDist is a priority-queue entry for the Dijkstra pass.
type nodeDist struct {
	node int
	dist float64
}

type nodeHeap []nodeDist

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(nodeDist)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
