package viz

import (
	"encoding/xml"
	"strings"
	"testing"

	"xtreesim/internal/bitstr"
	"xtreesim/internal/xtree"
)

// render returns the SVG output as a string, failing the test on error.
func render(t *testing.T, x *xtree.XTree, opts Options) string {
	t.Helper()
	var sb strings.Builder
	if err := WriteSVG(&sb, x, opts); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// wellFormed checks the output parses as XML.
func wellFormed(t *testing.T, s string) {
	t.Helper()
	dec := xml.NewDecoder(strings.NewReader(s))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				return
			}
			t.Fatalf("SVG not well-formed: %v", err)
		}
	}
}

func TestFigure1SVG(t *testing.T) {
	x := xtree.New(3)
	out := render(t, x, Options{Labels: true})
	wellFormed(t, out)
	// 15 vertices → 15 circles; 15 labels.
	if got := strings.Count(out, "<circle"); got != 15 {
		t.Errorf("%d circles, want 15", got)
	}
	if got := strings.Count(out, "<text"); got != 15 {
		t.Errorf("%d labels, want 15", got)
	}
	// 14 tree edges as lines, 11 horizontal edges as arcs.
	if got := strings.Count(out, "<line"); got != 14 {
		t.Errorf("%d lines, want 14", got)
	}
	if got := strings.Count(out, "<path"); got != 11 {
		t.Errorf("%d arcs, want 11", got)
	}
	// The root label appears.
	if !strings.Contains(out, ">ε<") {
		t.Error("root label missing")
	}
}

func TestLoadShading(t *testing.T) {
	x := xtree.New(2)
	assignment := []bitstr.Addr{
		bitstr.Root(), bitstr.Root(),
		bitstr.MustParse("0"),
	}
	loads := LoadsOf(assignment)
	if loads[bitstr.Root().ID()] != 2 || loads[bitstr.MustParse("0").ID()] != 1 {
		t.Fatalf("loads = %v", loads)
	}
	out := render(t, x, Options{Loads: loads})
	wellFormed(t, out)
	if !strings.Contains(out, "rgb(235,235,255)") || !strings.Contains(out, "rgb(245,245,255)") {
		t.Error("loads 2 and 1 not shaded 10 steps per unit")
	}
}

func TestHighlightN(t *testing.T) {
	x := xtree.New(4)
	a := bitstr.MustParse("01")
	h := HighlightN(x, a)
	if h[a.ID()] != "#e5554f" {
		t.Error("center not highlighted")
	}
	if len(h) != len(x.NSet(a)) {
		t.Errorf("highlight covers %d, N-set has %d", len(h), len(x.NSet(a)))
	}
	out := render(t, x, Options{Highlight: h})
	wellFormed(t, out)
	if !strings.Contains(out, "#e5554f") || !strings.Contains(out, "#f4b183") {
		t.Error("highlight colors missing from output")
	}
}

func TestDefaultsApplied(t *testing.T) {
	out := render(t, xtree.New(1), Options{})
	wellFormed(t, out)
	if !strings.Contains(out, `width="960"`) {
		t.Error("default width not applied")
	}
}
