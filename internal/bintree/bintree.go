// Package bintree implements the guest trees of the embedding: rooted
// binary trees in the sense of the paper — every node has at most two
// children, so the underlying undirected tree has maximum degree 3.
//
// Binary trees "reflect common data structures and the type of program
// structure found in common divide-and-conquer algorithms" (§1); the
// generators in this package produce the tree families the experiments
// sweep over: complete trees, paths, caterpillars, brooms, random shapes.
package bintree

import (
	"fmt"
	"strings"

	"xtreesim/internal/graph"
)

// None marks an absent parent or child.
const None int32 = -1

// Tree is a rooted binary tree over the nodes 0..N()-1.
type Tree struct {
	parent []int32
	left   []int32
	right  []int32
	root   int32
	// parentFirst records that every child's id is larger than its
	// parent's, as in Decode's pre-order numbering: a descending id scan
	// then visits every child before its parent.
	parentFirst bool
}

// NewFromParents builds a tree from a parent vector (parent[root] = None).
// childSide[v] selects whether v hangs as the left (0) or right (1) child;
// when nil, children fill left first.
func NewFromParents(parent []int32, childSide []byte) (*Tree, error) {
	n := len(parent)
	t := &Tree{
		parent:      append([]int32(nil), parent...),
		left:        make([]int32, n),
		right:       make([]int32, n),
		root:        None,
		parentFirst: true,
	}
	for i := range t.left {
		t.left[i] = None
		t.right[i] = None
	}
	for v := 0; v < n; v++ {
		p := parent[v]
		if p == None {
			if t.root != None {
				return nil, fmt.Errorf("bintree: two roots %d and %d", t.root, v)
			}
			t.root = int32(v)
			continue
		}
		if p < 0 || int(p) >= n || p == int32(v) {
			return nil, fmt.Errorf("bintree: node %d has invalid parent %d", v, p)
		}
		if p > int32(v) {
			t.parentFirst = false
		}
		side := byte(0)
		if childSide != nil {
			side = childSide[v]
		}
		switch {
		case side == 0 && t.left[p] == None:
			t.left[p] = int32(v)
		case t.right[p] == None:
			t.right[p] = int32(v)
		case t.left[p] == None:
			t.left[p] = int32(v)
		default:
			return nil, fmt.Errorf("bintree: node %d has more than two children", p)
		}
	}
	if n > 0 && t.root == None {
		return nil, fmt.Errorf("bintree: no root")
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// validate checks acyclicity/connectivity by walking up from every node.
// A second walk from the same node marks the chain done, so the check
// allocates its state array and nothing per node.
func (t *Tree) validate() error {
	n := t.N()
	state := make([]byte, n) // 0 unseen, 1 on the current chain, 2 done
	for v := 0; v < n; v++ {
		u := int32(v)
		for state[u] == 0 {
			state[u] = 1
			p := t.parent[u]
			if p == None {
				break
			}
			u = p
		}
		if state[u] == 1 && t.parent[u] != None {
			return fmt.Errorf("bintree: cycle through node %d", u)
		}
		for u = int32(v); state[u] == 1; u = t.parent[u] {
			state[u] = 2
			if t.parent[u] == None {
				break
			}
		}
	}
	return nil
}

// N returns the number of nodes.
func (t *Tree) N() int { return len(t.parent) }

// Root returns the root node.
func (t *Tree) Root() int32 { return t.root }

// Parent returns the parent of v, or None for the root.
func (t *Tree) Parent(v int32) int32 { return t.parent[v] }

// Left returns the left child of v, or None.
func (t *Tree) Left(v int32) int32 { return t.left[v] }

// Right returns the right child of v, or None.
func (t *Tree) Right(v int32) int32 { return t.right[v] }

// Children appends the existing children of v to buf.
func (t *Tree) Children(v int32, buf []int32) []int32 {
	if t.left[v] != None {
		buf = append(buf, t.left[v])
	}
	if t.right[v] != None {
		buf = append(buf, t.right[v])
	}
	return buf
}

// Neighbors appends every tree neighbor of v (parent and children) to buf.
// The result has length at most 3.
func (t *Tree) Neighbors(v int32, buf []int32) []int32 {
	if t.parent[v] != None {
		buf = append(buf, t.parent[v])
	}
	return t.Children(v, buf)
}

// Degree returns the undirected degree of v (≤ 3).
func (t *Tree) Degree(v int32) int {
	d := 0
	if t.parent[v] != None {
		d++
	}
	if t.left[v] != None {
		d++
	}
	if t.right[v] != None {
		d++
	}
	return d
}

// SubtreeSizes returns, for every node, the size of the subtree rooted
// there (with respect to the tree's own root).
func (t *Tree) SubtreeSizes() []int32 {
	n := t.N()
	size := make([]int32, n)
	order := t.PostOrder()
	for _, v := range order {
		size[v] = 1
		if l := t.left[v]; l != None {
			size[v] += size[l]
		}
		if r := t.right[v]; r != None {
			size[v] += size[r]
		}
	}
	return size
}

// PostOrder returns the nodes in post-order (children before parents),
// iteratively so deep paths do not overflow the stack.
func (t *Tree) PostOrder() []int32 {
	if t.N() == 0 {
		return nil
	}
	out := make([]int32, 0, t.N())
	type frame struct {
		v     int32
		stage byte
	}
	stack := []frame{{t.root, 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		switch f.stage {
		case 0:
			f.stage = 1
			if l := t.left[f.v]; l != None {
				stack = append(stack, frame{l, 0})
			}
		case 1:
			f.stage = 2
			if r := t.right[f.v]; r != None {
				stack = append(stack, frame{r, 0})
			}
		default:
			out = append(out, f.v)
			stack = stack[:len(stack)-1]
		}
	}
	return out
}

// PreOrder returns the nodes in pre-order.
func (t *Tree) PreOrder() []int32 {
	if t.N() == 0 {
		return nil
	}
	out := make([]int32, 0, t.N())
	stack := []int32{t.root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, v)
		if r := t.right[v]; r != None {
			stack = append(stack, r)
		}
		if l := t.left[v]; l != None {
			stack = append(stack, l)
		}
	}
	return out
}

// Height returns the number of edges on the longest root-to-leaf path
// (-1 for the empty tree).
func (t *Tree) Height() int {
	if t.N() == 0 {
		return -1
	}
	depth := make([]int32, t.N())
	max := int32(0)
	for _, v := range t.PreOrder() {
		if p := t.parent[v]; p != None {
			depth[v] = depth[p] + 1
			if depth[v] > max {
				max = depth[v]
			}
		}
	}
	return int(max)
}

// AsGraph returns the undirected adjacency of the tree.
func (t *Tree) AsGraph() *graph.Graph {
	g := graph.New(t.N())
	for v := 0; v < t.N(); v++ {
		if p := t.parent[v]; p != None {
			g.AddEdge(v, int(p))
		}
	}
	g.SortAdjacency()
	return g
}

// Encode serializes the tree shape as a nested-parenthesis string:
// node = "(" left right ")", absent child = ".".  The empty tree encodes
// as "." (Decode also accepts "" for it).
func (t *Tree) Encode() string {
	if t.N() == 0 {
		return "."
	}
	var sb strings.Builder
	var rec func(v int32)
	rec = func(v int32) {
		if v == None {
			sb.WriteByte('.')
			return
		}
		sb.WriteByte('(')
		rec(t.left[v])
		rec(t.right[v])
		sb.WriteByte(')')
	}
	rec(t.root)
	return sb.String()
}

// Decode parses the Encode format.  Nodes are numbered in pre-order, so
// every child's id is larger than its parent's.
//
// The parse is one iterative pass over s: counting '(' sizes the three
// arrays, and each ')' climbs back through parent, so deep paths need no
// stack.  A child slot holding 0 means "not parsed yet" (node 0 is the
// root and never a child).  The grammar node = "(" node node ")" | "."
// admits only binary trees, so a successful parse needs no validation.
func Decode(s string) (*Tree, error) {
	n := strings.Count(s, "(")
	t := &Tree{
		parent:      make([]int32, n),
		left:        make([]int32, n),
		right:       make([]int32, n),
		root:        None,
		parentFirst: true,
	}
	if s == "" || s == "." {
		return t, nil
	}
	cur, next := None, int32(0)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			v := next
			next++
			t.parent[v] = cur
			if cur == None {
				t.root = v
			} else if !t.fillSlot(cur, v) {
				return nil, fmt.Errorf("bintree: missing ')' at %d", i)
			}
			cur = v
		case '.':
			if cur == None {
				return nil, fmt.Errorf("bintree: trailing input at %d", i+1)
			}
			if !t.fillSlot(cur, None) {
				return nil, fmt.Errorf("bintree: missing ')' at %d", i)
			}
		case ')':
			if cur == None || t.right[cur] == 0 {
				return nil, fmt.Errorf("bintree: unexpected ')' at %d", i)
			}
			cur = t.parent[cur]
			if cur == None && i+1 < len(s) {
				return nil, fmt.Errorf("bintree: trailing input at %d", i+1)
			}
		default:
			return nil, fmt.Errorf("bintree: unexpected %q at %d", s[i], i)
		}
	}
	if cur != None {
		return nil, fmt.Errorf("bintree: unexpected end of input")
	}
	return t, nil
}

// fillSlot gives the open node v its next child c (None for an absent
// one) during Decode, and reports false when both slots are taken.
func (t *Tree) fillSlot(v, c int32) bool {
	switch {
	case t.left[v] == 0:
		t.left[v] = c
	case t.right[v] == 0:
		t.right[v] = c
	default:
		return false
	}
	return true
}

// Equal reports whether two trees have the same shape and numbering.
func (t *Tree) Equal(u *Tree) bool {
	if t.N() != u.N() || t.root != u.root {
		return false
	}
	for v := 0; v < t.N(); v++ {
		if t.parent[v] != u.parent[v] || t.left[v] != u.left[v] || t.right[v] != u.right[v] {
			return false
		}
	}
	return true
}

// Reroot returns a copy of the tree re-rooted at newRoot: the parent
// pointers along the path from newRoot to the old root are reversed.
// Child sides are reassigned arbitrarily (left first).  newRoot must have
// degree at most 2; rerooting at a degree-3 node would give it three
// children, which is no longer a binary tree.
func (t *Tree) Reroot(newRoot int32) (*Tree, error) {
	if t.Degree(newRoot) > 2 {
		return nil, fmt.Errorf("bintree: cannot reroot at degree-%d node %d", t.Degree(newRoot), newRoot)
	}
	n := t.N()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = None
	}
	// BFS from newRoot over the undirected adjacency.
	visited := make([]bool, n)
	visited[newRoot] = true
	queue := []int32{newRoot}
	var buf []int32
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		buf = t.Neighbors(v, buf[:0])
		for _, w := range buf {
			if !visited[w] {
				visited[w] = true
				parent[w] = v
				queue = append(queue, w)
			}
		}
	}
	return NewFromParents(parent, nil)
}

// String summarizes the tree.
func (t *Tree) String() string {
	return fmt.Sprintf("bintree{n=%d root=%d h=%d}", t.N(), t.root, t.Height())
}
