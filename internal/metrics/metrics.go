// Package metrics measures the quality of an embedding exactly as the
// paper defines it (§1):
//
//   - dilation: the maximum distance in the host between the images of
//     adjacent guest nodes — "the number of clock cycles needed in the
//     X-tree network to communicate between formerly adjacent processors";
//   - load factor: the maximum number of guest nodes mapped to any host
//     vertex;
//   - expansion: |host| / |guest|.
//
// It also measures edge congestion under shortest-path routing for
// graph-backed hosts, which the paper does not bound but the simulator
// experiments report.
package metrics

import (
	"fmt"

	"xtreesim/internal/bintree"
	"xtreesim/internal/graph"
)

// Host is a host network: dense vertex ids 0..NumVertices()-1 and an exact
// distance oracle.
type Host interface {
	NumVertices() int64
	Distance(u, v int64) int
}

// GraphHost adapts a materialized graph as a Host.
type GraphHost struct{ G *graph.Graph }

// NumVertices implements Host.
func (h GraphHost) NumVertices() int64 { return int64(h.G.N()) }

// Distance implements Host.
func (h GraphHost) Distance(u, v int64) int { return h.G.Distance(int(u), int(v)) }

// Embedding is a mapping of the guest's nodes into the host's vertices.
type Embedding struct {
	Guest *bintree.Tree
	Host  Host
	Map   []int64 // guest node -> host vertex id
}

// Validate checks that every guest node is mapped to a real host vertex.
func (e *Embedding) Validate() error {
	if len(e.Map) != e.Guest.N() {
		return fmt.Errorf("metrics: map covers %d of %d guest nodes", len(e.Map), e.Guest.N())
	}
	hn := e.Host.NumVertices()
	for v, h := range e.Map {
		if h < 0 || h >= hn {
			return fmt.Errorf("metrics: guest %d mapped to invalid host vertex %d", v, h)
		}
	}
	return nil
}

// Dilation returns the maximum host distance over guest edges (0 for guests
// without edges).
func (e *Embedding) Dilation() int {
	max := 0
	e.eachEdge(func(d int) {
		if d > max {
			max = d
		}
	})
	return max
}

// AverageDilation returns the mean host distance over guest edges.
func (e *Embedding) AverageDilation() float64 {
	sum, cnt := 0, 0
	e.eachEdge(func(d int) { sum += d; cnt++ })
	if cnt == 0 {
		return 0
	}
	return float64(sum) / float64(cnt)
}

// DilationStats returns Dilation and AverageDilation together from one
// serial pass over the guest edges, the pair every wire answer carries.
func (e *Embedding) DilationStats() (max int, mean float64) {
	sum, cnt := 0, 0
	for v := int32(0); v < int32(e.Guest.N()); v++ {
		p := e.Guest.Parent(v)
		if p == bintree.None {
			continue
		}
		d := e.Host.Distance(e.Map[v], e.Map[p])
		if d > max {
			max = d
		}
		sum += d
		cnt++
	}
	if cnt > 0 {
		mean = float64(sum) / float64(cnt)
	}
	return max, mean
}

// DilationParallel returns Dilation.
//
// Deprecated: use Dilation, or DilationStats for both edge metrics.  The
// benchmark module (xbench) still calls it.
func (e *Embedding) DilationParallel() int { return e.Dilation() }

func (e *Embedding) eachEdge(f func(dist int)) {
	for v := int32(0); v < int32(e.Guest.N()); v++ {
		if p := e.Guest.Parent(v); p != bintree.None {
			f(e.Host.Distance(e.Map[v], e.Map[p]))
		}
	}
}

// Loads returns the number of guest nodes on every used host vertex.
func (e *Embedding) Loads() map[int64]int {
	loads := map[int64]int{}
	for _, h := range e.Map {
		loads[h]++
	}
	return loads
}

// MaxLoad returns the load factor.
func (e *Embedding) MaxLoad() int {
	max := 0
	for _, c := range e.Loads() {
		if c > max {
			max = c
		}
	}
	return max
}

// IsInjective reports whether no two guest nodes share a host vertex.
func (e *Embedding) IsInjective() bool { return e.MaxLoad() <= 1 }

// Expansion returns |host| / |guest|.
func (e *Embedding) Expansion() float64 {
	if e.Guest.N() == 0 {
		return 0
	}
	return float64(e.Host.NumVertices()) / float64(e.Guest.N())
}

// Report is a summary of every embedding metric, used by the experiment
// tables.
type Report struct {
	GuestN    int
	HostN     int64
	Dilation  int
	AvgDil    float64
	MaxLoad   int
	Expansion float64
	Injective bool
}

// Summarize computes a full report.
func (e *Embedding) Summarize() Report {
	return Report{
		GuestN:    e.Guest.N(),
		HostN:     e.Host.NumVertices(),
		Dilation:  e.Dilation(),
		AvgDil:    e.AverageDilation(),
		MaxLoad:   e.MaxLoad(),
		Expansion: e.Expansion(),
		Injective: e.IsInjective(),
	}
}

// String renders the report as one table row.
func (r Report) String() string {
	return fmt.Sprintf("n=%d host=%d dilation=%d avg=%.2f load=%d expansion=%.3f injective=%v",
		r.GuestN, r.HostN, r.Dilation, r.AvgDil, r.MaxLoad, r.Expansion, r.Injective)
}

// EdgeCongestion routes every guest edge along one shortest path in the
// materialized host graph and returns the maximum and mean number of guest
// edges crossing any host edge.  Only available for graph-backed hosts.
func EdgeCongestion(e *Embedding, host *graph.Graph) (max int, mean float64) {
	type edge struct{ u, v int }
	count := map[edge]int{}
	norm := func(a, b int) edge {
		if a > b {
			a, b = b, a
		}
		return edge{a, b}
	}
	total := 0
	for v := int32(0); v < int32(e.Guest.N()); v++ {
		p := e.Guest.Parent(v)
		if p == bintree.None {
			continue
		}
		path := host.ShortestPath(int(e.Map[v]), int(e.Map[p]))
		for i := 0; i+1 < len(path); i++ {
			count[norm(path[i], path[i+1])]++
		}
	}
	for _, c := range count {
		if c > max {
			max = c
		}
		total += c
	}
	if host.M() > 0 {
		mean = float64(total) / float64(host.M())
	}
	return max, mean
}
