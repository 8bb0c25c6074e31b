package core

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"xtreesim/internal/bintree"
	"xtreesim/internal/bitstr"
	"xtreesim/internal/xtree"
)

// WriteResult serializes an embedding in a line-oriented text format:
//
//	xtreesim-embedding v1
//	height <r>
//	node <v> <parent|-1> <side 0|1>   (one per guest node, preserving ids)
//	assign <node> <vertex>            (one per guest node)
//
// The guest is stored as a parent vector rather than a shape encoding so
// the node numbering — which the assignment refers to — survives the
// round trip.  Stats are not serialized: ReadResult measures MaxLoad
// from the assignment, and the construction's counters stay zero.
func WriteResult(w io.Writer, res *Result) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "xtreesim-embedding v1")
	fmt.Fprintf(bw, "height %d\n", res.Host.Height())
	for v := int32(0); v < int32(res.Guest.N()); v++ {
		p := res.Guest.Parent(v)
		side := 0
		if p != bintree.None && res.Guest.Right(p) == v {
			side = 1
		}
		fmt.Fprintf(bw, "node %d %d %d\n", v, p, side)
	}
	for v, a := range res.Assignment {
		fmt.Fprintf(bw, "assign %d %s\n", v, a)
	}
	return bw.Flush()
}

// ReadResult parses the WriteResult format and re-validates the
// assignment against the reconstructed guest and host.  The result's
// Stats.MaxLoad is measured from the assignment, so MaxLoad reads the
// same as before the round trip.
func ReadResult(r io.Reader) (*Result, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26) // tree encodings can be long
	if !sc.Scan() || sc.Text() != "xtreesim-embedding v1" {
		return nil, fmt.Errorf("core: bad or missing header")
	}
	var height = -1
	type nodeLine struct {
		parent int32
		side   byte
	}
	var nodes []nodeLine
	type assignLine struct {
		v int
		a bitstr.Addr
	}
	var assigns []assignLine
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "height "):
			if _, err := fmt.Sscanf(line, "height %d", &height); err != nil {
				return nil, fmt.Errorf("core: bad height line %q", line)
			}
		case strings.HasPrefix(line, "node "):
			var v, p, side int
			if _, err := fmt.Sscanf(line, "node %d %d %d", &v, &p, &side); err != nil {
				return nil, fmt.Errorf("core: bad node line %q", line)
			}
			if v != len(nodes) || side < 0 || side > 1 {
				return nil, fmt.Errorf("core: node lines out of order at %q", line)
			}
			nodes = append(nodes, nodeLine{parent: int32(p), side: byte(side)})
		case strings.HasPrefix(line, "assign "):
			fields := strings.Fields(line)
			if len(fields) != 3 {
				return nil, fmt.Errorf("core: bad assign line %q", line)
			}
			var v int
			if _, err := fmt.Sscanf(fields[1], "%d", &v); err != nil || v < 0 {
				return nil, fmt.Errorf("core: bad node in %q", line)
			}
			a, err := bitstr.Parse(fields[2])
			if err != nil {
				return nil, fmt.Errorf("core: bad vertex in %q: %w", line, err)
			}
			assigns = append(assigns, assignLine{v: v, a: a})
		case strings.TrimSpace(line) == "":
		default:
			return nil, fmt.Errorf("core: unknown line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if height < 0 || len(nodes) == 0 {
		return nil, fmt.Errorf("core: incomplete file")
	}
	if height > bitstr.MaxLevel {
		return nil, fmt.Errorf("core: height %d above the largest X-tree height %d", height, bitstr.MaxLevel)
	}
	parents := make([]int32, len(nodes))
	sides := make([]byte, len(nodes))
	for v, nl := range nodes {
		parents[v] = nl.parent
		sides[v] = nl.side
	}
	guest, err := bintree.NewFromParents(parents, sides)
	if err != nil {
		return nil, fmt.Errorf("core: invalid guest: %w", err)
	}
	assignment := make([]bitstr.Addr, guest.N())
	seen := make([]bool, guest.N())
	for i := range assignment {
		assignment[i] = bitstr.Addr{Level: -1}
	}
	for _, al := range assigns {
		if al.v >= guest.N() {
			return nil, fmt.Errorf("core: assignment for unknown node %d", al.v)
		}
		if seen[al.v] {
			return nil, fmt.Errorf("core: duplicate assignment for node %d", al.v)
		}
		seen[al.v] = true
		assignment[al.v] = al.a
	}
	host := xtree.New(height)
	for v, a := range assignment {
		if a.Level < 0 {
			return nil, fmt.Errorf("core: node %d has no assignment", v)
		}
		if !host.Contains(a) {
			return nil, fmt.Errorf("core: node %d assigned outside X(%d)", v, height)
		}
	}
	res := &Result{Guest: guest, Host: host, Assignment: assignment}
	// The doc contract: a parsed file is re-validated, not trusted.  The
	// checker is the independent implementation of the paper's conditions
	// (load ≤ 16, condition (3′) on every edge), so a hand-edited or
	// bit-rotted file cannot smuggle an invalid embedding back in.
	if err := CheckInvariants(res); err != nil {
		return nil, fmt.Errorf("core: parsed embedding fails validation: %w", err)
	}
	res.Stats.MaxLoad = res.Embedding().MaxLoad()
	return res, nil
}
