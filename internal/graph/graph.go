// Package graph provides a small adjacency-list graph used as the common
// substrate for guests (binary trees), hosts (X-trees, hypercubes, universal
// graphs) and the network simulator.
//
// Vertices are dense integers 0..N-1.  Graphs are simple and undirected;
// AddEdge deduplicates, so constructions may add an edge from both sides.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Graph is a simple undirected graph over the vertices 0..N()-1.
type Graph struct {
	adj [][]int32
	m   int // number of edges
}

// New returns an empty graph with n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{adj: make([][]int32, n)}
}

// NewSized returns an empty graph with len(degree) vertices whose adjacency
// lists have room for degree[u] neighbors, carved from one allocation.  A
// construction that knows its final degrees then appends without regrowing;
// a list that outgrows its room is reallocated on its own.
func NewSized(degree []int) *Graph {
	total := 0
	for _, d := range degree {
		total += d
	}
	g := New(len(degree))
	buf := make([]int32, total)
	for u, d := range degree {
		g.adj[u], buf = buf[:0:d], buf[d:]
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	a, b := g.adj[u], g.adj[v]
	if len(b) < len(a) {
		a, u, v = b, v, u
	}
	for _, w := range a {
		if int(w) == v {
			return true
		}
	}
	return false
}

// AddEdge inserts the undirected edge {u,v}.  Self-loops and duplicates are
// ignored.  It reports whether the edge was newly added.
func (g *Graph) AddEdge(u, v int) bool {
	if u == v || g.HasEdge(u, v) {
		return false
	}
	g.adj[u] = append(g.adj[u], int32(v))
	g.adj[v] = append(g.adj[v], int32(u))
	g.m++
	return true
}

// AddNewEdge inserts {u,v} without AddEdge's duplicate scan.  The caller
// guarantees that u ≠ v and that the edge is not present yet, which lets a
// construction that enumerates every edge once stay linear in the edges.
func (g *Graph) AddNewEdge(u, v int) {
	g.adj[u] = append(g.adj[u], int32(v))
	g.adj[v] = append(g.adj[v], int32(u))
	g.m++
}

// Neighbors returns the adjacency list of u.  The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Neighbors(u int) []int32 { return g.adj[u] }

// Degree returns the degree of u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// MaxDegree returns the maximum vertex degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for u := range g.adj {
		if d := len(g.adj[u]); d > max {
			max = d
		}
	}
	return max
}

// Edges returns every edge exactly once as ordered pairs (u < v), sorted.
func (g *Graph) Edges() [][2]int {
	es := make([][2]int, 0, g.m)
	for u := range g.adj {
		for _, w := range g.adj[u] {
			if v := int(w); u < v {
				es = append(es, [2]int{u, v})
			}
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return es[i][0] < es[j][0]
		}
		return es[i][1] < es[j][1]
	})
	return es
}

// BFSFrom computes single-source shortest-path distances (in edges) from src.
// Unreachable vertices get distance -1.
func (g *Graph) BFSFrom(src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 0, 64)
	queue = append(queue, int32(src))
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		du := dist[u]
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Distance returns the shortest-path distance between u and v, or -1 when
// disconnected.  It runs a bidirectional-ish bounded BFS from u.
func (g *Graph) Distance(u, v int) int {
	if u == v {
		return 0
	}
	dist := map[int32]int{int32(u): 0}
	queue := []int32{int32(u)}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		dx := dist[x]
		for _, y := range g.adj[x] {
			if _, seen := dist[y]; !seen {
				if int(y) == v {
					return dx + 1
				}
				dist[y] = dx + 1
				queue = append(queue, y)
			}
		}
	}
	return -1
}

// ShortestPath returns one shortest path from u to v inclusive, or nil when
// disconnected.
func (g *Graph) ShortestPath(u, v int) []int {
	if u == v {
		return []int{u}
	}
	prev := map[int32]int32{int32(u): -1}
	queue := []int32{int32(u)}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, y := range g.adj[x] {
			if _, seen := prev[y]; !seen {
				prev[y] = x
				if int(y) == v {
					var path []int
					for c := y; c != -1; c = prev[c] {
						path = append(path, int(c))
					}
					for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
						path[i], path[j] = path[j], path[i]
					}
					return path
				}
				queue = append(queue, y)
			}
		}
	}
	return nil
}

// Connected reports whether the graph is connected (the empty graph counts
// as connected).
func (g *Graph) Connected() bool {
	if g.N() == 0 {
		return true
	}
	seen := 0
	for _, d := range g.BFSFrom(0) {
		if d >= 0 {
			seen++
		}
	}
	return seen == g.N()
}

// IsTree reports whether the graph is a tree: connected with N-1 edges.
func (g *Graph) IsTree() bool {
	return g.N() > 0 && g.m == g.N()-1 && g.Connected()
}

// Diameter returns the largest finite pairwise distance.  It runs a BFS from
// every vertex, so it is only intended for small graphs (tests, figures).
// It returns -1 for the empty graph and 0 for a single vertex.
func (g *Graph) Diameter() int {
	if g.N() == 0 {
		return -1
	}
	max := 0
	for u := 0; u < g.N(); u++ {
		for _, d := range g.BFSFrom(u) {
			if d > max {
				max = d
			}
		}
	}
	return max
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	h := New(g.N())
	h.m = g.m
	for u := range g.adj {
		h.adj[u] = append([]int32(nil), g.adj[u]...)
	}
	return h
}

// SortAdjacency sorts every adjacency list in ascending vertex order, which
// makes iteration deterministic for tests and DOT output.
func (g *Graph) SortAdjacency() {
	for _, a := range g.adj {
		slices.Sort(a)
	}
}

// DegreeHistogram returns a map degree -> number of vertices with it.
func (g *Graph) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for u := range g.adj {
		h[len(g.adj[u])]++
	}
	return h
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.N(), g.m)
}
