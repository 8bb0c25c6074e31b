package bintree

// AllShapes enumerates every rooted binary-tree shape with exactly n nodes
// (Catalan(n) of them), numbered in pre-order.  Intended for exhaustive
// small-instance testing: Catalan(10) = 16796.
func AllShapes(n int) []*Tree {
	if n < 0 {
		return nil
	}
	memo := make(map[int][]string)
	var shapes func(k int) []string
	shapes = func(k int) []string {
		if k == 0 {
			return []string{"."}
		}
		if s, ok := memo[k]; ok {
			return s
		}
		var out []string
		for left := 0; left < k; left++ {
			ls := shapes(left)
			rs := shapes(k - 1 - left)
			for _, l := range ls {
				for _, r := range rs {
					out = append(out, "("+l+r+")")
				}
			}
		}
		memo[k] = out
		return out
	}
	encs := shapes(n)
	out := make([]*Tree, 0, len(encs))
	for _, enc := range encs {
		if enc == "." {
			out = append(out, &Tree{root: None})
			continue
		}
		t, err := Decode(enc)
		if err != nil {
			panic("bintree: enumeration produced invalid encoding: " + err.Error())
		}
		out = append(out, t)
	}
	return out
}

// Fibonacci returns the Fibonacci tree of order k: F(0) and F(1) are
// single nodes, F(k) has F(k−1) as left and F(k−2) as right subtree.
// These are the maximally height-unbalanced AVL trees, a classic stress
// shape between the path and the complete tree.
func Fibonacci(k int) *Tree {
	var build func(k int, parent []int32, side []byte, p int32, sd byte) (int32, []int32, []byte)
	build = func(k int, parent []int32, side []byte, p int32, sd byte) (int32, []int32, []byte) {
		v := int32(len(parent))
		parent = append(parent, p)
		side = append(side, sd)
		if k >= 2 {
			_, parent, side = build(k-1, parent, side, v, 0)
			_, parent, side = build(k-2, parent, side, v, 1)
		}
		return v, parent, side
	}
	_, parent, side := build(k, nil, nil, None, 0)
	return mustTree(parent, side)
}
