package separator

import (
	"fmt"
	"slices"
)

// Split is the outcome of a separator lemma applied to a rooted component
// with designated nodes r1 (the root) and r2.
//
// Part2 lists the guest nodes of the side whose size approximates the
// target A; Part1 is the complement (not materialized — see Part1Of).  The
// separator sets satisfy S1 ⊆ Part1, S2 ⊆ Part2, every edge between the
// parts joins a node of S1 to a node of S2, {r1, r2} ⊆ S1 ∪ S2, and each
// S_i is collinear in its part: after removing S_i, every remaining
// component of Part_i is attached to S_i by at most two edges.
type Split struct {
	S1, S2 []int32 // guest ids, deduplicated and sorted
	Part2  []int32 // guest ids of the ≈A side
	Case   string  // which proof case produced the split (instrumentation)
}

// Part1Of materializes the complement of Part2 within the component.
func (s Split) Part1Of(r *Rooted) []int32 {
	in2 := make([]bool, r.N()) // by local id
	for _, g := range s.Part2 {
		if l, ok := r.Local(g); ok {
			in2[l] = true
		}
	}
	out := make([]int32, 0, r.N()-len(s.Part2))
	for l, g := range r.Guests() {
		if !in2[l] {
			out = append(out, g)
		}
	}
	return out
}

// sorted sorts and deduplicates the separator sets.
func (s Split) sorted() Split {
	slices.Sort(s.S1)
	slices.Sort(s.S2)
	s.S1, s.S2 = slices.Compact(s.S1), slices.Compact(s.S2)
	return s
}

// Lemma1Bound is the balance error guaranteed by Lemma 1: ⌊(A+1)/3⌋.
func Lemma1Bound(A int) int { return (A + 1) / 3 }

// Lemma2Bound is the balance error guaranteed by Lemma 2: ⌊(A+4)/9⌋.
func Lemma2Bound(A int) int { return (A + 4) / 9 }

// find1 implements procedure "find1" of the paper: starting at start, walk
// to the child of maximal (effective) subtree size while the current
// subtree exceeds 4/3·target.  holes are roots of subtrees excluded from
// the tree (and from all size accounting).
//
// Precondition: 3·effSize(start) > 4·target and target ≥ 1.  The returned
// node u then satisfies |effSize(u) − target| ≤ ⌊(target+1)/3⌋ whenever
// every node on the descent path has at most two children with nonzero
// effective size (true for binary trees whose root has degree ≤ 2, the
// only way the lemmas are invoked).
func find1(r *Rooted, start int32, target int, holes []int32) int32 {
	eff := func(v int32) int {
		s := int(r.size[v])
		for _, h := range holes {
			if h >= 0 && r.IsAncestor(v, h) {
				s -= int(r.size[h])
			}
		}
		return s
	}
	v := start
	for 3*eff(v) > 4*target {
		best := int32(-1)
		bestSize := -1
		for c := r.first[v]; c < r.first[v]+r.nkids[v]; c++ {
			if s := eff(c); s > bestSize {
				best, bestSize = c, s
			}
		}
		if best < 0 || bestSize == 0 {
			break // no usable child; can only happen on degenerate input
		}
		v = best
	}
	return v
}

// piece describes a carved set of nodes: the union of the subtrees rooted
// at the add roots, minus the subtree rooted at sub (when sub >= 0, it is a
// strict descendant of add[0]).  All fields are local indices.
type piece struct {
	add  []int32
	sub  int32
	size int
}

// carve removes a piece of ≈ target nodes from the subtree rooted at w
// (excluding the optional hole subtree), using find1 twice: the first cut
// has error ≤ ⌊(target+1)/3⌋ and the second reduces it to ⌊(target+4)/9⌋.
//
// Precondition: 3·(size(w) − hole) > 4·target.
func carve(r *Rooted, w int32, target int, hole int32) piece {
	if target <= 0 {
		return piece{sub: -1}
	}
	holes := []int32{}
	if hole >= 0 {
		holes = append(holes, hole)
	}
	u1 := find1(r, w, target, holes)
	s1 := int(r.size[u1]) // u1 is never an ancestor of hole: find1 only
	// passes through hole ancestors while their effective size is large,
	// and stops below the threshold where hole ancestry is impossible —
	// except in degenerate shapes, so subtract defensively.
	for _, h := range holes {
		if r.IsAncestor(u1, h) {
			s1 -= int(r.size[h])
		}
	}
	switch {
	case s1 == target:
		return piece{add: []int32{u1}, sub: -1, size: s1}
	case s1 > target:
		// Overshoot: cut the excess back out of T(u1).
		o := s1 - target
		if 3*s1 <= 4*o {
			return piece{add: []int32{u1}, sub: -1, size: s1}
		}
		u2 := find1(r, u1, o, holes)
		if u2 == u1 {
			return piece{add: []int32{u1}, sub: -1, size: s1}
		}
		return piece{add: []int32{u1}, sub: u2, size: s1 - int(r.size[u2])}
	default:
		// Undershoot: add a second subtree of ≈ s more nodes.  The
		// search is restricted to T(parent(u1)) − T(u1), so the new
		// cut sits below parent(u1): this keeps S collinear (the
		// corridor components between the separator nodes then touch
		// at most two of them) and there is provably enough mass —
		// the find1 descent kept going at p1, so
		// eff(p1) > 4/3·target, hence eff(p1) − eff(u1) > 4/3·s.
		s := target - s1
		p1 := r.parent[u1]
		if p1 < 0 {
			return piece{add: []int32{u1}, sub: -1, size: s1}
		}
		holes2 := append(append([]int32{}, holes...), u1)
		rem := int(r.size[p1])
		for _, h := range holes2 {
			if r.IsAncestor(p1, h) {
				rem -= int(r.size[h])
			}
		}
		if 3*rem <= 4*s {
			return piece{add: []int32{u1}, sub: -1, size: s1}
		}
		u2 := find1(r, p1, s, holes2)
		if u2 == p1 || r.IsAncestor(u2, u1) {
			return piece{add: []int32{u1}, sub: -1, size: s1}
		}
		sz2 := int(r.size[u2])
		for _, h := range holes {
			if r.IsAncestor(u2, h) {
				sz2 -= int(r.size[h])
			}
		}
		return piece{add: []int32{u1, u2}, sub: -1, size: s1 + sz2}
	}
}

// guests collects the guest ids of a piece.
func (p piece) guests(r *Rooted, buf []int32) []int32 {
	buf = slices.Grow(buf, p.size)
	skip := p.sub
	for _, a := range p.add {
		stack := []int32{a}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v == skip {
				continue
			}
			buf = append(buf, r.nodes[v])
			stack = r.Children(v, stack)
		}
	}
	return buf
}

// cuts appends the separator contributions of the piece's cut edges: for
// every added root a, parent(a) lands on the remainder side and a on the
// piece side; for the subtracted root the orientation flips.
func (p piece) cuts(r *Rooted, sRemain, sPiece []int32) ([]int32, []int32) {
	for _, a := range p.add {
		if pa := r.parent[a]; pa >= 0 {
			sRemain = append(sRemain, r.nodes[pa])
		}
		sPiece = append(sPiece, r.nodes[a])
	}
	if p.sub >= 0 {
		sRemain = append(sRemain, r.nodes[p.sub])
		sPiece = append(sPiece, r.nodes[r.parent[p.sub]])
	}
	return sRemain, sPiece
}

// Lemma1 splits the component (rooted at its designated node r1) into
// Part2 ≈ A and the rest, per Lemma 1 of the paper: |S1| ≤ 4, |S2| ≤ 2,
// balance error ≤ ⌊(A+1)/3⌋.  r2 is the second designated node (it may
// equal the root).  Precondition: 3·N > 4·A and A ≥ 1.
func Lemma1(r *Rooted, r2 int32, A int) (Split, error) {
	rl2, ok := r.Local(r2)
	if !ok {
		return Split{}, fmt.Errorf("separator: r2=%d not in component", r2)
	}
	n := r.N()
	if A < 1 || 3*n <= 4*A {
		return Split{}, fmt.Errorf("separator: lemma 1 needs 1 ≤ A and 3n > 4A (n=%d A=%d)", n, A)
	}
	sp, u, err := lemma1At(r, r.Root(), rl2, A)
	if err != nil {
		return Split{}, err
	}
	sp.Part2 = r.SubtreeGuests(u, nil)
	return sp, nil
}

// lemma1At runs Lemma 1 inside the subtree rooted at top, with designated
// nodes top and rl2 (a node of that subtree).  Used directly by Lemma 1 and
// as the inner step of Lemma 2's case 3.  It returns the separator sets
// and the root u of the carved part T(u), leaving Part2 to the caller.
func lemma1At(r *Rooted, top, rl2 int32, A int) (Split, int32, error) {
	u := find1(r, top, A, nil)
	if u == top {
		return Split{}, u, fmt.Errorf("separator: find1 did not descend (n=%d A=%d)", r.size[top], A)
	}
	x := r.parent[u]
	if r.IsAncestor(u, rl2) {
		// Case "sub": r2 lies inside T(u).
		return Split{
			S1:   []int32{r.nodes[top], r.nodes[x]},
			S2:   []int32{r.nodes[u], r.nodes[rl2]},
			Case: "lemma1-sub",
		}.sorted(), u, nil
	}
	// Case "rest": r2 outside T(u); y is where the paths from the root to
	// u and to r2 part.
	y := r.LCA(u, rl2)
	return Split{
		S1:   []int32{r.nodes[top], r.nodes[rl2], r.nodes[x], r.nodes[y]},
		S2:   []int32{r.nodes[u]},
		Case: "lemma1-rest",
	}.sorted(), u, nil
}

// Lemma2 splits the component (rooted at its designated node r1) into
// Part2 ≈ A and the rest, per Lemma 2 of the paper: |S1|, |S2| ≤ 4,
// balance error ≤ ⌊(A+4)/9⌋.  Precondition: 0 ≤ A ≤ N.
func Lemma2(r *Rooted, r2 int32, A int) (Split, error) {
	rl2, ok := r.Local(r2)
	if !ok {
		return Split{}, fmt.Errorf("separator: r2=%d not in component", r2)
	}
	n := r.N()
	if A < 0 || A > n {
		return Split{}, fmt.Errorf("separator: lemma 2 needs 0 ≤ A ≤ n (n=%d A=%d)", n, A)
	}
	if A == 0 {
		return Split{S1: []int32{r.nodes[0], r2}, Case: "lemma2-empty"}.sorted(), nil
	}
	if 3*n <= 4*A {
		// The target side is almost everything: split off the
		// complement A' = n − A instead and swap the roles afterwards
		// (the paper's final remark in the proof of Lemma 2).
		inner, err := Lemma2(r, r2, n-A)
		if err != nil {
			return Split{}, err
		}
		return Split{
			S1:    inner.S2,
			S2:    inner.S1,
			Part2: inner.Part1Of(r),
			Case:  inner.Case + "+swap",
		}, nil
	}
	// find2: walk from the root toward r2 while the subtree stays large.
	v := r.Root()
	for 3*int(r.size[v]) > 4*A && v != rl2 {
		next := int32(-1)
		for c := r.first[v]; c < r.first[v]+r.nkids[v]; c++ {
			if r.IsAncestor(c, rl2) {
				next = c
				break
			}
		}
		if next < 0 {
			return Split{}, fmt.Errorf("separator: find2 lost the path to r2")
		}
		v = next
	}
	switch {
	case v == rl2 && 3*int(r.size[v]) > 4*A:
		// Case 1: both designated nodes stay on the rest side; carve
		// ≈A out of T(r2).
		p := carve(r, v, A, -1)
		s1, s2 := p.cuts(r, []int32{r.nodes[0], r2}, nil)
		return Split{S1: s1, S2: s2, Part2: p.guests(r, nil), Case: "lemma2-case1"}.sorted(), nil

	case int(r.size[v]) < A:
		// Case 2: T(v) (containing r2) is short of A; top it up with a
		// piece of ≈ A−|T(v)| carved from T(x) − T(v).
		x := r.parent[v]
		e := A - int(r.size[v])
		p := carve(r, x, e, v)
		s1, s2 := p.cuts(r, []int32{r.nodes[0], r.nodes[x]}, []int32{r2, r.nodes[v]})
		part2 := p.guests(r, r.SubtreeGuests(v, nil))
		return Split{S1: s1, S2: s2, Part2: part2, Case: "lemma2-case2"}.sorted(), nil

	default:
		// Case 3: A ≤ |T(v)| ≤ 4A/3.  Shave A' = |T(v)| − A off T(v)
		// with Lemma 1 (designated v and r2); the shaved part joins
		// the rest side.
		x := r.parent[v]
		aPrime := int(r.size[v]) - A
		if aPrime == 0 {
			return Split{
				S1:    []int32{r.nodes[0], r.nodes[x]},
				S2:    []int32{r.nodes[v], r2},
				Part2: r.SubtreeGuests(v, nil),
				Case:  "lemma2-case3-exact",
			}.sorted(), nil
		}
		inner, u, err := lemma1At(r, v, rl2, aPrime)
		if err != nil {
			return Split{}, fmt.Errorf("separator: lemma 2 case 3: %w", err)
		}
		// The carved-out T(u) and its side of the sets join Part1; the
		// remainder T(v) − T(u) is Part2.
		return Split{
			S1:    append([]int32{r.nodes[0], r.nodes[x]}, inner.S2...),
			S2:    inner.S1,
			Part2: piece{add: []int32{v}, sub: u}.guests(r, nil),
			Case:  "lemma2-case3",
		}.sorted(), nil
	}
}
