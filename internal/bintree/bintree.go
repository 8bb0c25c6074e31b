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

// AsGraph returns the undirected adjacency of the tree, each vertex's
// neighbors ascending.  A node's degree is its child count plus one
// below the root, so the lists are sized up front and the build
// allocates a constant number of times.
func (t *Tree) AsGraph() *graph.Graph {
	degree := make([]int, t.N())
	for v, p := range t.parent {
		if p != None {
			degree[v]++
			degree[p]++
		}
	}
	g := graph.NewSized(degree)
	for v, p := range t.parent {
		if p != None {
			g.AddNewEdge(v, int(p))
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

// String summarizes the tree.
func (t *Tree) String() string {
	return fmt.Sprintf("bintree{n=%d root=%d h=%d}", t.N(), t.root, t.Height())
}
