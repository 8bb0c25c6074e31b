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

import "sync"

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
// every subtree into info, which must hold N() entries; it writes every
// one.  When every child's id exceeds its parent's (parentFirst), the
// descending id scan is such an order and post is nil; otherwise the plan
// walks PostOrder and returns it as post.
func (t *Tree) canonicalPlan(info []canonInfo) (post []int32) {
	n := t.N()
	if !t.parentFirst {
		post = t.PostOrder()
	}
	for k := 0; k < n; k++ {
		v := int32(n - 1 - k)
		if post != nil {
			v = post[k]
		}
		switch a, b := t.canonChildren(v, info); {
		case a == None:
			info[v] = canonInfo{size: 1, height: 0, hash: canonMix(canonAbsent, canonAbsent)}
		case b == None:
			info[v] = canonInfo{
				size:   info[a].size + 1,
				height: info[a].height + 1,
				hash:   canonMix(info[a].hash, canonAbsent),
			}
		default:
			info[v] = canonInfo{
				size:   info[a].size + info[b].size + 1,
				height: max(info[a].height, info[b].height) + 1,
				hash:   canonMix(info[a].hash, info[b].hash),
			}
		}
	}
	return post
}

// canonChildren returns v's children in canonical order, a before b: a
// present child precedes an absent slot (None), and of two children the
// canonLess one comes first.  info must hold the children's keys.
func (t *Tree) canonChildren(v int32, info []canonInfo) (a, b int32) {
	a, b = t.left[v], t.right[v]
	if a == None || (b != None && canonLess(info[b], info[a])) {
		a, b = b, a
	}
	return a, b
}

// canonAt is where a node's code starts in the canonical code and the
// node's position in the canonical pre-order.
type canonAt struct{ off, pos int32 }

// canonScratch is CanonicalCode's working memory: the subtree keys, the
// placements and the code's bytes before they become a string.  Every
// call overwrites all it reads, so canonPool hands the arrays from one
// call to the next instead of allocating and zeroing 27 bytes per node.
type canonScratch struct {
	info []canonInfo
	at   []canonAt
	buf  []byte
}

var canonPool = sync.Pool{New: func() any { return new(canonScratch) }}

// CanonicalCode returns the canonical nested-parenthesis encoding of the
// tree and the canonical pre-order of its nodes.  Two trees have equal
// codes exactly when they are isomorphic as unordered rooted trees (up to
// the tie-break caveat above, which can only under-merge), and mapping
// the i-th node of one canonical order to the i-th node of the other is
// then an isomorphism.  The empty tree encodes as "." with a nil order.
func (t *Tree) CanonicalCode() (string, []int32) {
	n := t.N()
	if n == 0 {
		return ".", nil
	}
	sc := canonPool.Get().(*canonScratch)
	defer canonPool.Put(sc)
	if len(sc.info) < n {
		*sc = canonScratch{info: make([]canonInfo, n), at: make([]canonAt, n), buf: make([]byte, 3*n+1)}
	}
	info, at, buf := sc.info[:n], sc.at[:n], sc.buf[:3*n+1]
	post := t.canonicalPlan(info)
	// A subtree of s nodes encodes in 3s+1 bytes: '(', a child's code or
	// '.' for each of its two slots, ')'.  So where a node's code starts
	// and its pre-order position fix its children's, and one pass that
	// visits every parent before its children places every byte: ascending
	// ids on a parent-first tree (whose root is node 0), the plan's
	// PostOrder read backwards otherwise.  The root starts at offset 0
	// and position 0.
	order := make([]int32, n)
	at[t.root] = canonAt{}
	for k := 0; k < n; k++ {
		v := int32(k)
		if post != nil {
			v = post[n-1-k]
		}
		off, pos := at[v].off, at[v].pos
		order[pos] = v
		buf[off] = '('
		buf[off+3*info[v].size] = ')'
		off, pos = off+1, pos+1
		a, b := t.canonChildren(v, info)
		if a != None {
			at[a] = canonAt{off, pos}
			off += 3*info[a].size + 1
			pos += info[a].size
		} else {
			buf[off] = '.'
			off++
		}
		if b != None {
			at[b] = canonAt{off, pos}
		} else {
			buf[off] = '.'
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
