package core

import (
	"context"
	"fmt"
	"math/bits"
	"sort"

	"xtreesim/internal/bintree"
	"xtreesim/internal/bitstr"
	"xtreesim/internal/hypercube"
	"xtreesim/internal/metrics"
	"xtreesim/internal/trace"
	"xtreesim/internal/xtree"
)

// InjectiveResult is a one-to-one embedding into a larger X-tree
// (Theorem 2).
type InjectiveResult struct {
	Guest      *bintree.Tree
	Host       *xtree.XTree
	Assignment []bitstr.Addr
}

// EmbedInjective implements Theorem 2: from a load-16 embedding δ into
// X(r), build the injective embedding χ(u) = δ(u)∘μ into X(r+4) by handing
// the (up to) 16 nodes of every vertex the 16 distinct 4-bit suffixes.
// Since δ(u) and δ(u)∘μ are joined by a 4-edge downward path, dilation(χ)
// ≤ dilation(δ) + 8 — with dilation 3 this gives 11.
func EmbedInjective(res *Result) (*InjectiveResult, error) {
	return EmbedInjectiveContext(context.Background(), res)
}

// EmbedInjectiveContext is EmbedInjective under the context's trace
// span: the relocation — regrouping the co-located guests and handing
// them distinct 4-bit suffixes — records as one "embed.injective" span.
func EmbedInjectiveContext(ctx context.Context, res *Result) (*InjectiveResult, error) {
	sp := trace.FromContext(ctx).Child("embed.injective")
	out, err := embedInjective(res)
	if err != nil {
		sp.SetAttr("error", 1)
	} else {
		sp.SetAttr("n", int64(res.Guest.N()))
	}
	sp.End()
	return out, err
}

func embedInjective(res *Result) (*InjectiveResult, error) {
	if res.Host.Height()+4 > bitstr.MaxLevel {
		return nil, fmt.Errorf("core: injective host height %d too large", res.Host.Height()+4)
	}
	host := xtree.New(res.Host.Height() + 4)
	// Group guest nodes by their δ vertex, deterministically.
	groups := map[bitstr.Addr][]int32{}
	for v, a := range res.Assignment {
		groups[a] = append(groups[a], int32(v))
	}
	out := make([]bitstr.Addr, len(res.Assignment))
	for a, vs := range groups {
		if len(vs) > LoadTarget {
			return nil, fmt.Errorf("core: vertex %v carries %d > %d nodes", a, len(vs), LoadTarget)
		}
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		for k, v := range vs {
			suffix := bitstr.Addr{Level: 4, Index: uint64(k)}
			out[v] = a.Append(suffix)
		}
	}
	return &InjectiveResult{Guest: res.Guest, Host: host, Assignment: out}, nil
}

// Embedding adapts the injective result for the metrics package.
func (res *InjectiveResult) Embedding() *metrics.Embedding {
	return metrics.XTreeEmbedding(res.Guest, res.Host, res.Assignment)
}

// HypercubeResult is an embedding into a hypercube (Theorem 3).
type HypercubeResult struct {
	Guest      *bintree.Tree
	Host       *hypercube.Hypercube
	Assignment []uint64
}

// EmbedHypercube implements Theorem 3: compose the X-tree embedding δ of
// Theorem 1 with Lemma 3's map χ : X(r) → Q_{r+1}.  Since χ stretches
// distances by at most one, the composition has load 16 and dilation
// ≤ dilation(δ) + 1 — with dilation 3 this gives 4.  For the theorem's
// n = 16·(2^r − 1) the host is the optimal hypercube Q_r (built from the
// X-tree X(r−1)).
func EmbedHypercube(res *Result) *HypercubeResult {
	return EmbedHypercubeContext(context.Background(), res)
}

// EmbedHypercubeContext is EmbedHypercube under the context's trace
// span: the χ host construction and composition record as one
// "embed.hypercube" span.
func EmbedHypercubeContext(ctx context.Context, res *Result) *HypercubeResult {
	sp := trace.FromContext(ctx).Child("embed.hypercube")
	out := embedHypercube(res)
	sp.SetAttr("n", int64(res.Guest.N())).SetAttr("dim", int64(out.Host.Dim())).End()
	return out
}

// HypercubeDilationContext returns the dilation and mean dilation of
// EmbedHypercube(res) without building it: one pass over the guest edges
// takes the Hamming distance between χ of both ends' X-tree vertices.
// It allocates nothing, and records as the same "embed.hypercube" span as
// EmbedHypercubeContext.  The load needs no pass: χ is one-to-one, so
// the hypercube embedding's load is res's.
func HypercubeDilationContext(ctx context.Context, res *Result) (dil int, mean float64) {
	sp := trace.FromContext(ctx).Child("embed.hypercube")
	r := res.Host.Height()
	sum, cnt := 0, 0
	for v := int32(0); v < int32(res.Guest.N()); v++ {
		p := res.Guest.Parent(v)
		if p == bintree.None {
			continue
		}
		d := bits.OnesCount64(hypercube.Chi(res.Assignment[v], r) ^ hypercube.Chi(res.Assignment[p], r))
		dil = max(dil, d)
		sum += d
		cnt++
	}
	if cnt > 0 {
		mean = float64(sum) / float64(cnt)
	}
	sp.SetAttr("n", int64(res.Guest.N())).SetAttr("dim", int64(r+1)).End()
	return dil, mean
}

func embedHypercube(res *Result) *HypercubeResult {
	r := res.Host.Height()
	host := hypercube.New(r + 1)
	out := make([]uint64, len(res.Assignment))
	for v, a := range res.Assignment {
		out[v] = hypercube.Chi(a, r)
	}
	return &HypercubeResult{Guest: res.Guest, Host: host, Assignment: out}
}

// Embedding adapts the hypercube result for the metrics package.
func (res *HypercubeResult) Embedding() *metrics.Embedding {
	m := make([]int64, len(res.Assignment))
	for i, a := range res.Assignment {
		m[i] = int64(a)
	}
	return &metrics.Embedding{Guest: res.Guest, Host: metrics.HypercubeHost{H: res.Host}, Map: m}
}

// InjectiveHypercube is the corollary after Theorem 3: compose Theorem 2's
// injective X-tree embedding with χ, giving an injective hypercube
// embedding with dilation ≤ 11 + 1 (measured ≤ 7; see also
// InjectiveHypercubeDirect for the paper's sharper dilation-8 route).
func InjectiveHypercube(res *InjectiveResult) *HypercubeResult {
	r := res.Host.Height()
	host := hypercube.New(r + 1)
	out := make([]uint64, len(res.Assignment))
	for v, a := range res.Assignment {
		out[v] = hypercube.Chi(a, r)
	}
	return &HypercubeResult{Guest: res.Guest, Host: host, Assignment: out}
}

// InjectiveHypercubeDirect is the paper's own corollary construction with
// dilation ≤ 8: take the load-16 hypercube embedding χ∘δ of Theorem 3
// (dilation ≤ 4) and open four extra cube dimensions that hand the 16
// guests of every hypercube vertex distinct tags.  A guest edge then costs
// the χ∘δ distance (≤ 4) plus the tag Hamming distance (≤ 4).
func InjectiveHypercubeDirect(res *Result) *HypercubeResult {
	r := res.Host.Height()
	host := hypercube.New(r + 1 + 4)
	groups := map[bitstr.Addr][]int32{}
	for v, a := range res.Assignment {
		groups[a] = append(groups[a], int32(v))
	}
	out := make([]uint64, len(res.Assignment))
	for a, vs := range groups {
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		base := hypercube.Chi(a, r) << 4
		for k, v := range vs {
			out[v] = base | uint64(k)
		}
	}
	return &HypercubeResult{Guest: res.Guest, Host: host, Assignment: out}
}
