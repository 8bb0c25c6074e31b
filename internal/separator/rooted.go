// Package separator implements the tree-separation lemmas of Monien
// (SPAA '91, §2): given a binary tree with up to two designated nodes and a
// target size A, it produces small separator sets S1, S2 whose removal of
// the S1–S2 edges splits the tree into a part of size ≈ A and the rest,
// with the designated nodes inside S1 ∪ S2 and each S_i collinear in its
// part.  Lemma 1 achieves balance error ⌊(A+1)/3⌋ with |S1| ≤ 4, |S2| ≤ 2;
// Lemma 2 achieves ⌊(A+4)/9⌋ with |S1|, |S2| ≤ 4.
//
// The lemmas are the workhorses of the procedures ADJUST and SPLIT in the
// embedding algorithm: every horizontal edge of the X-tree gets one such
// split per round to re-balance the halves.
package separator

import (
	"fmt"
	"sort"
)

// AdjFunc enumerates the neighbors of a guest node by appending them to buf.
// A binary-tree guest returns at most 3 neighbors.
type AdjFunc func(v int32, buf []int32) []int32

// Rooted is a rooted view of one tree component of the guest, built by a
// BFS from a chosen root over the nodes accepted by a membership filter.
// Locals index into the internal arrays; guests are the original node ids.
type Rooted struct {
	nodes  []int32 // local -> guest, nodes[0] is the root
	pos    map[int32]int32
	parent []int32 // local -> local, -1 at root
	kids   [][]int32
	size   []int32
	depth  []int32
	tin    []int32 // Euler intervals for O(1) ancestor tests
	tout   []int32
	stack  []frame // computeOrder scratch, reused across builds
}

type frame struct {
	v    int32
	next int
}

// Builder builds Rooted views into reusable storage, so a hot loop that
// roots thousands of components (the embedder builds one per separator
// split) does not reallocate the arrays each time.  Every call to Build
// returns the same underlying Rooted and overwrites the previous view;
// the caller must be completely done with the prior Rooted first.  The
// Split values the lemmas produce copy their node sets, so they stay
// valid after the next Build.
type Builder struct {
	r   Rooted
	buf []int32
}

// Build is BuildSized into the Builder's reusable storage.  The returned
// Rooted is invalidated by the next Build on the same Builder.
func (b *Builder) Build(adj AdjFunc, root int32, member func(int32) bool, sizeHint int) *Rooted {
	b.buf = b.r.build(adj, root, member, sizeHint, b.buf)
	return &b.r
}

// Build roots the component containing root.  member may be nil to accept
// every node reachable through adj.  adj must describe a forest (no cycles);
// Build does not re-check this.
func Build(adj AdjFunc, root int32, member func(int32) bool) *Rooted {
	return BuildSized(adj, root, member, 0)
}

// BuildSized is Build with a capacity hint for the component size, which
// avoids rehashing and regrowth on the embedder's hot path.
func BuildSized(adj AdjFunc, root int32, member func(int32) bool, sizeHint int) *Rooted {
	r := &Rooted{}
	r.build(adj, root, member, sizeHint, nil)
	return r
}

// build fills r in place, reusing whatever storage it already holds.
// buf is the adjacency scratch; the (possibly grown) slice is returned.
func (r *Rooted) build(adj AdjFunc, root int32, member func(int32) bool, sizeHint int, buf []int32) []int32 {
	if sizeHint < 1 {
		sizeHint = 1
	}
	if r.pos == nil {
		r.pos = make(map[int32]int32, sizeHint)
	} else {
		clear(r.pos)
	}
	r.nodes = r.nodes[:0]
	r.parent = r.parent[:0]
	r.depth = r.depth[:0]
	r.kids = r.kids[:0]
	r.nodes = append(r.nodes, root)
	r.pos[root] = 0
	r.parent = append(r.parent, -1)
	r.depth = append(r.depth, 0)
	// BFS; kids recorded in discovery order.
	r.growKids()
	for head := 0; head < len(r.nodes); head++ {
		v := r.nodes[head]
		buf = adj(v, buf[:0])
		for _, w := range buf {
			if member != nil && !member(w) {
				continue
			}
			if _, seen := r.pos[w]; seen {
				continue
			}
			local := int32(len(r.nodes))
			r.nodes = append(r.nodes, w)
			r.pos[w] = local
			r.parent = append(r.parent, int32(head))
			r.depth = append(r.depth, r.depth[head]+1)
			r.growKids()
			r.kids[head] = append(r.kids[head], local)
		}
	}
	r.computeOrder()
	return buf
}

// growKids appends one empty child list, keeping the capacity of a
// previously built inner slice when the outer array is being reused.
func (r *Rooted) growKids() {
	if n := len(r.kids); n < cap(r.kids) {
		r.kids = r.kids[:n+1]
		r.kids[n] = r.kids[n][:0]
	} else {
		r.kids = append(r.kids, nil)
	}
}

// computeOrder fills sizes and Euler intervals iteratively.
func (r *Rooted) computeOrder() {
	n := len(r.nodes)
	r.size = grow32(r.size, n)
	r.tin = grow32(r.tin, n)
	r.tout = grow32(r.tout, n)
	timer := int32(0)
	stack := append(r.stack[:0], frame{0, 0})
	r.tin[0] = timer
	timer++
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(r.kids[f.v]) {
			c := r.kids[f.v][f.next]
			f.next++
			r.tin[c] = timer
			timer++
			stack = append(stack, frame{c, 0})
			continue
		}
		r.tout[f.v] = timer
		timer++
		r.size[f.v] = 1
		for _, c := range r.kids[f.v] {
			r.size[f.v] += r.size[c]
		}
		stack = stack[:len(stack)-1]
	}
	r.stack = stack
}

// grow32 resizes s to n entries, reusing its backing array when large
// enough.  Contents are unspecified; every caller overwrites all n slots.
func grow32(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int32, n)
}

// N returns the number of nodes in the component.
func (r *Rooted) N() int { return len(r.nodes) }

// Guest returns the guest id of a local node.
func (r *Rooted) Guest(local int32) int32 { return r.nodes[local] }

// Local returns the local index of a guest node, if present.
func (r *Rooted) Local(guest int32) (int32, bool) {
	l, ok := r.pos[guest]
	return l, ok
}

// Root returns the local index of the root (always 0).
func (r *Rooted) Root() int32 { return 0 }

// Parent returns the local parent of a local node, -1 at the root.
func (r *Rooted) Parent(local int32) int32 { return r.parent[local] }

// Children returns the local children (owned by the Rooted; do not modify).
func (r *Rooted) Children(local int32) []int32 { return r.kids[local] }

// IsAncestor reports whether a is an ancestor of b (a == b counts).
func (r *Rooted) IsAncestor(a, b int32) bool {
	return r.tin[a] <= r.tin[b] && r.tout[b] <= r.tout[a]
}

// LCA returns the lowest common ancestor of two local nodes by walking up
// from the deeper one.  Linear in the depth difference; fine for the
// constant number of calls each lemma makes.
func (r *Rooted) LCA(a, b int32) int32 {
	for r.depth[a] > r.depth[b] {
		a = r.parent[a]
	}
	for r.depth[b] > r.depth[a] {
		b = r.parent[b]
	}
	for a != b {
		a = r.parent[a]
		b = r.parent[b]
	}
	return a
}

// SubtreeGuests appends the guest ids of the subtree rooted at local to buf.
func (r *Rooted) SubtreeGuests(local int32, buf []int32) []int32 {
	stack := []int32{local}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		buf = append(buf, r.nodes[v])
		stack = append(stack, r.kids[v]...)
	}
	return buf
}

// Guests returns all guest ids of the component in local order.  The slice
// is owned by the Rooted and must not be modified.
func (r *Rooted) Guests() []int32 { return r.nodes }

// effSize returns the subtree size of v with the subtree under hole
// excluded (hole < 0 means no hole).
func (r *Rooted) effSize(v, hole int32) int32 {
	s := r.size[v]
	if hole >= 0 && r.IsAncestor(v, hole) {
		s -= r.size[hole]
	}
	return s
}

// sortedGuests returns a sorted copy, for deterministic output in tests.
func sortedGuests(in []int32) []int32 {
	out := append([]int32(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String summarizes the component.
func (r *Rooted) String() string {
	return fmt.Sprintf("rooted{n=%d root=%d}", r.N(), r.nodes[0])
}
