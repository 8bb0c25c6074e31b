package bintree

import "testing"

func TestStatsComplete(t *testing.T) {
	s := Complete(3).Stats() // 15 nodes
	if s.N != 15 || s.Height != 3 || s.Leaves != 8 || s.MaxWidth != 8 {
		t.Fatalf("complete stats = %+v", s)
	}
	// Internal nodes below the root have degree 3.
	if s.Internal3 != 6 {
		t.Errorf("Internal3 = %d, want 6", s.Internal3)
	}
	// Average depth: (0 + 2·1 + 4·2 + 8·3)/15 = 34/15.
	if want := 34.0 / 15.0; s.AvgDepth != want {
		t.Errorf("AvgDepth = %v, want %v", s.AvgDepth, want)
	}
}

func TestStatsPath(t *testing.T) {
	s := Path(10).Stats()
	if s.Height != 9 || s.Leaves != 1 || s.MaxWidth != 1 || s.Internal3 != 0 {
		t.Fatalf("path stats = %+v", s)
	}
	if s.AvgDepth != 4.5 {
		t.Errorf("AvgDepth = %v", s.AvgDepth)
	}
}

func TestStatsCaterpillarAndEmpty(t *testing.T) {
	s := Caterpillar(7).Stats()
	// Spine 0-2-4-6 with leaves 1,3,5: leaves are 1,3,5,6.
	if s.Leaves != 4 {
		t.Errorf("caterpillar leaves = %d", s.Leaves)
	}
	// Spine interior nodes 2 and 4 have degree 3.
	if s.Internal3 != 2 {
		t.Errorf("caterpillar Internal3 = %d", s.Internal3)
	}
	empty, _ := NewFromParents(nil, nil)
	if s := empty.Stats(); s.N != 0 || s.Height != -1 {
		t.Errorf("empty stats = %+v", s)
	}
}
