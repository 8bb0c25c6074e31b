package bintree

// canonical.go gives every tree an AHU-style canonical form up to
// unordered rooted isomorphism: two trees that differ only by node
// numbering and by left/right child order produce the same canonical
// code.  The batching engine keys its embedding cache on this code —
// isomorphic guests dominate real workloads (repeated instance families,
// mirrored subproblems), and an embedding computed for one member of the
// class transfers to every other member by relabeling alone.
//
// The construction follows Aho–Hopcroft–Ullman: order the two subtrees
// under every node by an isomorphism-invariant key (size, then height,
// then a Merkle-style subtree hash), then emit the nested-parenthesis
// encoding of the reordered tree.  The hash only breaks ties in the
// ordering; the emitted code is a faithful encoding of an ordered tree,
// so equal codes always imply isomorphic trees regardless of hash
// collisions (a collision can at worst make two isomorphic trees
// canonicalize differently, never conflate distinct ones).

// canonInfo is the isomorphism-invariant sort key of one subtree.
type canonInfo struct {
	size   int32
	height int32
	hash   uint64
}

// canonLess orders subtrees: the "smaller" one is emitted first.
func canonLess(a, b canonInfo) bool {
	if a.size != b.size {
		return a.size < b.size
	}
	if a.height != b.height {
		return a.height < b.height
	}
	return a.hash < b.hash
}

// canonMix folds two child hashes into a parent hash (splitmix64-style
// finalization so single-bit differences avalanche).
func canonMix(a, b uint64) uint64 {
	h := (a*0x9e3779b97f4a7c15 + b) ^ 0xbf58476d1ce4e5b9
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// canonAbsent is the hash of a missing child.
const canonAbsent uint64 = 0x2545f4914f6cdd1d

// canonicalPlan computes, children before parents, the invariant key of
// every subtree and the canonical child order (first, second; None for
// absent children).  A node's present child always precedes its absent
// slot.  When every child's id exceeds its parent's (parentFirst), the
// descending id scan is such an order and no PostOrder walk is needed.
func (t *Tree) canonicalPlan() (first, second []int32) {
	n := t.N()
	first = make([]int32, n)
	second = make([]int32, n)
	info := make([]canonInfo, n)
	var post []int32
	if !t.parentFirst {
		post = t.PostOrder()
	}
	for k := 0; k < n; k++ {
		v := int32(n - 1 - k)
		if post != nil {
			v = post[k]
		}
		l, r := t.left[v], t.right[v]
		switch {
		case l == None && r == None:
			first[v], second[v] = None, None
			info[v] = canonInfo{size: 1, height: 0, hash: canonMix(canonAbsent, canonAbsent)}
		case l == None || r == None:
			c := l
			if c == None {
				c = r
			}
			first[v], second[v] = c, None
			info[v] = canonInfo{
				size:   info[c].size + 1,
				height: info[c].height + 1,
				hash:   canonMix(info[c].hash, canonAbsent),
			}
		default:
			a, b := l, r
			if canonLess(info[r], info[l]) {
				a, b = r, l
			}
			first[v], second[v] = a, b
			h := info[a].height
			if info[b].height > h {
				h = info[b].height
			}
			info[v] = canonInfo{
				size:   info[a].size + info[b].size + 1,
				height: h + 1,
				hash:   canonMix(info[a].hash, info[b].hash),
			}
		}
	}
	return first, second
}

// CanonicalCode returns the canonical nested-parenthesis encoding of the
// tree and the canonical pre-order of its nodes.  Two trees have equal
// codes exactly when they are isomorphic as unordered rooted trees (up to
// the tie-break caveat above, which can only under-merge), and mapping
// the i-th node of one canonical order to the i-th node of the other is
// then an isomorphism.  The empty tree encodes as "." with a nil order.
func (t *Tree) CanonicalCode() (string, []int32) {
	if t.N() == 0 {
		return ".", nil
	}
	first, second := t.canonicalPlan()
	// Iterative emission so path-shaped guests cannot overflow the stack:
	// '(' on entry, the two canonical children (or '.') in order, ')' on
	// exit.  The entry sequence is the canonical pre-order.
	buf := make([]byte, 0, 3*t.N())
	order := make([]int32, 0, t.N())
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
			buf = append(buf, '(')
			order = append(order, f.v)
			if c := first[f.v]; c != None {
				stack = append(stack, frame{c, 0})
			} else {
				buf = append(buf, '.')
			}
		case 1:
			f.stage = 2
			if c := second[f.v]; c != None {
				stack = append(stack, frame{c, 0})
			} else {
				buf = append(buf, '.')
			}
		default:
			buf = append(buf, ')')
			stack = stack[:len(stack)-1]
		}
	}
	return string(buf), order
}

// CanonicalHash returns a 64-bit FNV-1a hash of CanonicalCode: equal for
// isomorphic trees, and distinct for non-isomorphic ones up to ordinary
// hash collisions.  Callers that cannot tolerate collisions (the
// engine's cache) key on the full code and use the hash only as a fast
// first-pass discriminator.
func (t *Tree) CanonicalHash() uint64 {
	code, _ := t.CanonicalCode()
	return HashCode(code)
}

// HashCode returns CanonicalHash for an already-computed canonical code,
// so callers holding the code string (the engine, which needs the code
// as a collision-proof cache key anyway) can derive the hash without
// re-walking the tree.  HashCode(t.CanonicalCode()) == t.CanonicalHash().
func HashCode(code string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(code); i++ {
		h ^= uint64(code[i])
		h *= prime64
	}
	return h
}
