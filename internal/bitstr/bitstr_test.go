package bitstr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRoot(t *testing.T) {
	r := Root()
	if !r.IsRoot() || r.Level != 0 || r.Index != 0 {
		t.Fatalf("Root() = %+v", r)
	}
	if r.String() != "ε" {
		t.Fatalf("Root().String() = %q", r.String())
	}
	if r.ID() != 0 {
		t.Fatalf("Root().ID() = %d", r.ID())
	}
}

func TestChildParent(t *testing.T) {
	a := MustParse("0110")
	if got := a.Child(1).String(); got != "01101" {
		t.Errorf("Child(1) = %q", got)
	}
	if got := a.Child(0).String(); got != "01100" {
		t.Errorf("Child(0) = %q", got)
	}
	if got := a.Parent().String(); got != "011" {
		t.Errorf("Parent() = %q", got)
	}
}

func TestBits(t *testing.T) {
	a := MustParse("10110")
	want := []byte{1, 0, 1, 1, 0}
	for i, w := range want {
		if got := a.Bit(i); got != w {
			t.Errorf("Bit(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestSuccessorPredecessor(t *testing.T) {
	cases := []struct {
		in, succ string
		ok       bool
	}{
		{"000", "001", true},
		{"001", "010", true},
		{"011", "100", true},
		{"110", "111", true},
		{"111", "", false},
		{"0", "1", true},
		{"1", "", false},
		{"", "", false}, // root has no successor
	}
	for _, c := range cases {
		a := MustParse(c.in)
		s, ok := a.Successor()
		if ok != c.ok {
			t.Errorf("Successor(%q) ok = %v, want %v", c.in, ok, c.ok)
			continue
		}
		if ok && s.String() != c.succ {
			t.Errorf("Successor(%q) = %q, want %q", c.in, s.String(), c.succ)
		}
		if ok {
			p, pok := s.Predecessor()
			if !pok || p != a {
				t.Errorf("Predecessor(Successor(%q)) = %v, %v", c.in, p, pok)
			}
		}
	}
}

func TestAppendPrefix(t *testing.T) {
	a := MustParse("10")
	b := MustParse("011")
	if got := a.Append(b).String(); got != "10011" {
		t.Errorf("Append = %q", got)
	}
	if got := a.AppendOnes(3).String(); got != "10111" {
		t.Errorf("AppendOnes = %q", got)
	}
	if got := a.AppendZeros(2).String(); got != "1000" {
		t.Errorf("AppendZeros = %q", got)
	}
	c := MustParse("10110")
	if got := c.Prefix(3).String(); got != "101" {
		t.Errorf("Prefix(3) = %q", got)
	}
}

func TestCommonPrefixLen(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"10110", "10111", 4},
		{"10110", "10110", 5},
		{"0", "1", 0},
		{"", "1011", 0},
		{"110", "1101", 3},
		{"0011", "0100", 1},
	}
	for _, c := range cases {
		if got := CommonPrefixLen(MustParse(c.a), MustParse(c.b)); got != c.want {
			t.Errorf("CommonPrefixLen(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, s := range []string{"", "0", "1", "01", "111000", "0101010101"} {
		a, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		want := s
		if s == "" {
			want = "ε"
		}
		if a.String() != want {
			t.Errorf("round trip %q -> %q", s, a.String())
		}
	}
	if _, err := Parse("01a"); err == nil {
		t.Error("Parse(01a) succeeded")
	}
}

func TestIDEnumeration(t *testing.T) {
	// IDs must enumerate vertices level by level, left to right.
	want := []string{"ε", "0", "1", "00", "01", "10", "11", "000", "001", "010", "011", "100", "101", "110", "111"}
	for id, w := range want {
		a := FromID(int64(id))
		if a.String() != w {
			t.Errorf("FromID(%d) = %q, want %q", id, a.String(), w)
		}
		if a.ID() != int64(id) {
			t.Errorf("ID(FromID(%d)) = %d", id, a.ID())
		}
	}
}

func TestNumVertices(t *testing.T) {
	cases := map[int]int64{-1: 0, 0: 1, 1: 3, 2: 7, 3: 15, 10: 2047}
	for h, want := range cases {
		if got := NumVertices(h); got != want {
			t.Errorf("NumVertices(%d) = %d, want %d", h, got, want)
		}
	}
}

func randomAddr(r *rand.Rand, maxLevel int) Addr {
	level := r.Intn(maxLevel + 1)
	var idx uint64
	if level > 0 {
		idx = r.Uint64() & (uint64(1)<<uint(level) - 1)
	}
	return Addr{Level: level, Index: idx}
}

func TestPropertyParentChildInverse(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		a := randomAddr(r, 40)
		return a.Child(0).Parent() == a && a.Child(1).Parent() == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyIDRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func() bool {
		a := randomAddr(r, 40)
		return FromID(a.ID()) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyStringRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func() bool {
		a := randomAddr(r, 40)
		b, err := Parse(a.String())
		if a.IsRoot() {
			b = Root()
			err = nil
		}
		return err == nil && b == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertySuccessorIncrementsBinary(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	f := func() bool {
		a := randomAddr(r, 40)
		s, ok := a.Successor()
		if !ok {
			return a.IsLast() || a.IsRoot()
		}
		return s.Level == a.Level && s.Index == a.Index+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyAppendPrefix(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f := func() bool {
		a := randomAddr(r, 20)
		b := randomAddr(r, 20)
		ab := a.Append(b)
		return ab.Level == a.Level+b.Level && ab.Prefix(a.Level) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValid(t *testing.T) {
	if !(Addr{Level: 3, Index: 7}).Valid() {
		t.Error("111 should be valid")
	}
	if (Addr{Level: 3, Index: 8}).Valid() {
		t.Error("index 8 at level 3 should be invalid")
	}
	if (Addr{Level: -1}).Valid() {
		t.Error("negative level should be invalid")
	}
	if (Addr{Level: MaxLevel + 1}).Valid() {
		t.Error("over MaxLevel should be invalid")
	}
}
