package bintree

import "testing"

// TestCountShapes checks that AllShapes(n) yields the Catalan number C(n)
// of shapes.
func TestCountShapes(t *testing.T) {
	catalan := []int{1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862}
	for n, want := range catalan {
		if got := len(AllShapes(n)); got != want {
			t.Errorf("AllShapes(%d) has %d shapes, want the Catalan number %d", n, got, want)
		}
	}
}

func TestAllShapes(t *testing.T) {
	for n := 0; n <= 7; n++ {
		shapes := AllShapes(n)
		seen := map[string]bool{}
		for _, tr := range shapes {
			if tr.N() != n {
				t.Fatalf("shape with %d nodes in AllShapes(%d)", tr.N(), n)
			}
			enc := tr.Encode()
			if seen[enc] {
				t.Fatalf("duplicate shape %q", enc)
			}
			seen[enc] = true
			if n > 0 && !tr.AsGraph().IsTree() {
				t.Fatalf("shape %q is not a tree", enc)
			}
		}
	}
}

func TestFibonacci(t *testing.T) {
	// Sizes follow the Leonardo numbers: 1, 1, 3, 5, 9, 15, 25, ...
	want := []int{1, 1, 3, 5, 9, 15, 25, 41}
	for k, w := range want {
		f := Fibonacci(k)
		if f.N() != w {
			t.Errorf("Fibonacci(%d).N = %d, want %d", k, f.N(), w)
		}
		if !f.AsGraph().IsTree() {
			t.Errorf("Fibonacci(%d) not a tree", k)
		}
	}
	// Height of F(k) is k-1 for k >= 1 (left spine).
	if h := Fibonacci(7).Height(); h != 6 {
		t.Errorf("Fibonacci(7) height = %d", h)
	}
	// Maximal imbalance: left subtree strictly deeper.
	f := Fibonacci(6)
	l, r := f.Left(f.Root()), f.Right(f.Root())
	if l == None || r == None {
		t.Fatal("Fibonacci(6) root must have two children")
	}
}
