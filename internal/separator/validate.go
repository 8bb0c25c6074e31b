package separator

import "fmt"

// Validate checks every postcondition of a separator lemma on the given
// component: designated nodes covered, separator sizes within (maxS1,
// maxS2), balance |len(Part2) − A| ≤ bound, S_i contained in Part_i, all
// part-crossing edges joining S1 to S2, and both S_i collinear in their
// parts.  r2 is the second designated node (guest id).  It returns nil when
// the split is valid.
func Validate(r *Rooted, r2 int32, A int, s Split, maxS1, maxS2, bound int) error {
	side := make(map[int32]int8, r.N()) // guest -> 1 or 2
	for _, g := range r.Guests() {
		side[g] = 1
	}
	for _, g := range s.Part2 {
		if _, ok := side[g]; !ok {
			return fmt.Errorf("part2 node %d not in component", g)
		}
		side[g] = 2
	}
	inS := make(map[int32]int8) // guest -> which separator set
	for _, g := range s.S1 {
		if side[g] != 1 {
			return fmt.Errorf("S1 node %d not in part 1", g)
		}
		inS[g] = 1
	}
	for _, g := range s.S2 {
		if side[g] != 2 {
			return fmt.Errorf("S2 node %d not in part 2", g)
		}
		inS[g] = 2
	}
	// (1) designated nodes covered.
	if inS[r.Guests()[0]] == 0 {
		return fmt.Errorf("designated r1=%d not in S1∪S2", r.Guests()[0])
	}
	if inS[r2] == 0 {
		return fmt.Errorf("designated r2=%d not in S1∪S2", r2)
	}
	// (2) sizes.
	if len(s.S1) > maxS1 {
		return fmt.Errorf("|S1| = %d > %d", len(s.S1), maxS1)
	}
	if len(s.S2) > maxS2 {
		return fmt.Errorf("|S2| = %d > %d", len(s.S2), maxS2)
	}
	// (3) balance.
	if d := len(s.Part2) - A; d > bound || -d > bound {
		return fmt.Errorf("|part2| = %d, target %d, error %d > bound %d", len(s.Part2), A, d, bound)
	}
	// (3 cont.) crossing edges only between S1 and S2.
	for li := 0; li < r.N(); li++ {
		p := r.Parent(int32(li))
		if p < 0 {
			continue
		}
		gu, gp := r.Guest(int32(li)), r.Guest(p)
		if side[gu] != side[gp] {
			su, sp := inS[gu], inS[gp]
			if su == 0 || sp == 0 || su == sp {
				return fmt.Errorf("crossing edge %d--%d not between S1 and S2", gp, gu)
			}
		}
	}
	// (4) collinearity of S_i in part i.
	for part := int8(1); part <= 2; part++ {
		if err := checkCollinear(r, side, inS, part); err != nil {
			return err
		}
	}
	return nil
}

// checkCollinear floods the components of part − S and counts their edges
// into S nodes of the same part.
func checkCollinear(r *Rooted, side map[int32]int8, inS map[int32]int8, part int8) error {
	visited := map[int32]bool{}
	for li := 0; li < r.N(); li++ {
		g := r.Guest(int32(li))
		if side[g] != part || inS[g] != 0 || visited[g] {
			continue
		}
		// Flood this component over same-part non-separator nodes,
		// counting edges that touch separator nodes of this part.
		contacts := 0
		stack := []int32{int32(li)}
		visited[g] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			var nbrs []int32
			if p := r.Parent(v); p >= 0 {
				nbrs = append(nbrs, p)
			}
			nbrs = r.Children(v, nbrs)
			for _, w := range nbrs {
				gw := r.Guest(w)
				if side[gw] != part {
					continue // crossing edge, checked elsewhere
				}
				if inS[gw] != 0 {
					contacts++
					continue
				}
				if !visited[gw] {
					visited[gw] = true
					stack = append(stack, w)
				}
			}
		}
		if contacts > 2 {
			return fmt.Errorf("component of part %d at guest %d has %d separator contacts", part, g, contacts)
		}
	}
	return nil
}
