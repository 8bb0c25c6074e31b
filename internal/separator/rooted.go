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
	"slices"
)

// AdjFunc enumerates the neighbors of a guest node by appending them to buf.
// A binary-tree guest returns at most 3 neighbors.
type AdjFunc func(v int32, buf []int32) []int32

// Rooted is a rooted view of one tree component of the guest, built by a
// BFS from a chosen root over the nodes accepted by a membership filter.
// Locals index into the internal arrays; guests are the original node ids.
//
// The BFS hands each node's children consecutive local ids, so a node's
// children are the locals first[v] .. first[v]+nkids[v]−1, in discovery
// order.  pos maps a guest id to its local id and is guest-indexed, as a
// sparse set: pos[g] counts only where it points back at g through nodes,
// so entries left by an earlier build need no clearing, and a build costs
// its component, not the guest.
type Rooted struct {
	nodes  []int32 // local -> guest, nodes[0] is the root
	pos    []int32 // guest -> local, valid where nodes[pos[g]] == g
	parent []int32 // local -> local, -1 at root
	first  []int32 // local -> local id of the first child
	nkids  []int32 // local -> number of children
	size   []int32
	depth  []int32
	tin    []int32 // preorder rank: T(v) is tin[v] .. tin[v]+size[v]−1
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

// Build is the package's Build into the Builder's reusable storage, with
// a capacity hint for the component size that sizes the local arrays once
// instead of regrowing them.  The returned Rooted is invalidated by the
// next Build on the same Builder.
func (b *Builder) Build(adj AdjFunc, root int32, member func(int32) bool, sizeHint int) *Rooted {
	b.buf = b.r.build(adj, root, member, sizeHint, b.buf)
	return &b.r
}

// Build roots the component containing root.  member may be nil to accept
// every node reachable through adj.  adj must describe a forest (no cycles);
// Build does not re-check this.
func Build(adj AdjFunc, root int32, member func(int32) bool) *Rooted {
	r := &Rooted{}
	r.build(adj, root, member, 0, nil)
	return r
}

// build fills r in place, reusing whatever storage it already holds.
// buf is the adjacency scratch; the (possibly grown) slice is returned.
func (r *Rooted) build(adj AdjFunc, root int32, member func(int32) bool, sizeHint int, buf []int32) []int32 {
	if sizeHint < 1 {
		sizeHint = 1
	}
	r.nodes = reserve32(r.nodes, sizeHint)
	r.parent = reserve32(r.parent, sizeHint)
	r.depth = reserve32(r.depth, sizeHint)
	r.first = reserve32(r.first, sizeHint)
	r.nkids = reserve32(r.nkids, sizeHint)
	r.nodes = append(r.nodes, root)
	r.parent = append(r.parent, -1)
	r.depth = append(r.depth, 0)
	r.setPos(root, 0)
	// BFS; the children of head get the next local ids, in discovery
	// order.
	for head := 0; head < len(r.nodes); head++ {
		v := r.nodes[head]
		first := int32(len(r.nodes))
		buf = adj(v, buf[:0])
		for _, w := range buf {
			if member != nil && !member(w) {
				continue
			}
			if _, seen := r.Local(w); seen {
				continue
			}
			r.setPos(w, int32(len(r.nodes)))
			r.nodes = append(r.nodes, w)
			r.parent = append(r.parent, int32(head))
			r.depth = append(r.depth, r.depth[head]+1)
		}
		r.first = append(r.first, first)
		r.nkids = append(r.nkids, int32(len(r.nodes))-first)
	}
	r.computeOrder()
	return buf
}

// setPos records guest g at local id l, growing pos geometrically to
// cover g.
func (r *Rooted) setPos(g, l int32) {
	if int(g) >= len(r.pos) {
		pos := make([]int32, max(int(g)+1, 2*len(r.pos)))
		copy(pos, r.pos)
		r.pos = pos
	}
	r.pos[g] = l
}

// computeOrder fills subtree sizes and preorder ranks.  Children carry
// larger local ids than their parent, so one backward pass sums the sizes
// and one forward pass hands each child its range after its parent and
// its earlier siblings.
func (r *Rooted) computeOrder() {
	n := len(r.nodes)
	r.size = resize32(r.size, n)
	r.tin = resize32(r.tin, n)
	for v := n - 1; v >= 0; v-- {
		s := int32(1)
		for c := r.first[v]; c < r.first[v]+r.nkids[v]; c++ {
			s += r.size[c]
		}
		r.size[v] = s
	}
	r.tin[0] = 0
	for v := 0; v < n; v++ {
		next := r.tin[v] + 1
		for c := r.first[v]; c < r.first[v]+r.nkids[v]; c++ {
			r.tin[c] = next
			next += r.size[c]
		}
	}
}

// reserve32 empties s, growing its capacity to at least n.
func reserve32(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:0]
	}
	return make([]int32, 0, max(n, 2*cap(s)))
}

// resize32 resizes s to n entries, growing geometrically when its backing
// array is too small.  Contents are unspecified; every caller overwrites
// all n slots.
func resize32(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int32, n, max(n, 2*cap(s)))
}

// N returns the number of nodes in the component.
func (r *Rooted) N() int { return len(r.nodes) }

// Guest returns the guest id of a local node.
func (r *Rooted) Guest(local int32) int32 { return r.nodes[local] }

// Local returns the local index of a guest node, if present.
func (r *Rooted) Local(guest int32) (int32, bool) {
	if guest < 0 || int(guest) >= len(r.pos) {
		return 0, false
	}
	l := r.pos[guest]
	if int(l) >= len(r.nodes) || r.nodes[l] != guest {
		return 0, false
	}
	return l, true
}

// Root returns the local index of the root (always 0).
func (r *Rooted) Root() int32 { return 0 }

// Parent returns the local parent of a local node, -1 at the root.
func (r *Rooted) Parent(local int32) int32 { return r.parent[local] }

// Children appends the local children of a local node to buf, in
// discovery order.
func (r *Rooted) Children(local int32, buf []int32) []int32 {
	for c := r.first[local]; c < r.first[local]+r.nkids[local]; c++ {
		buf = append(buf, c)
	}
	return buf
}

// IsAncestor reports whether a is an ancestor of b (a == b counts).
func (r *Rooted) IsAncestor(a, b int32) bool {
	return r.tin[a] <= r.tin[b] && r.tin[b] < r.tin[a]+r.size[a]
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
	buf = slices.Grow(buf, int(r.size[local]))
	stack := []int32{local}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		buf = append(buf, r.nodes[v])
		stack = r.Children(v, stack)
	}
	return buf
}

// Guests returns all guest ids of the component in local order.  The slice
// is owned by the Rooted and must not be modified.
func (r *Rooted) Guests() []int32 { return r.nodes }

// String summarizes the component.
func (r *Rooted) String() string {
	return fmt.Sprintf("rooted{n=%d root=%d}", r.N(), r.nodes[0])
}
