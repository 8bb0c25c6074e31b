// Package viz renders X-trees and embeddings as SVG — Figure 1 of the
// paper, optionally annotated with the per-vertex load of an embedding or
// with highlighted N(a) neighborhoods (Figure 2).
package viz

import (
	"fmt"
	"io"

	"xtreesim/internal/bitstr"
	"xtreesim/internal/xtree"
)

// Options control the rendering.
type Options struct {
	Width, RowHeight float64          // canvas geometry (defaults 960, 90)
	Labels           bool             // print the binary-string labels
	Loads            map[int64]int    // per-vertex load (fill shading; 16 is dark)
	Highlight        map[int64]string // vertex id -> fill color override
}

// WriteSVG renders X(r) in the paper's Figure 1 layout: one row per
// level, tree edges as black lines, horizontal edges as blue arcs.
func WriteSVG(w io.Writer, x *xtree.XTree, opts Options) error {
	if opts.Width <= 0 {
		opts.Width = 960
	}
	if opts.RowHeight <= 0 {
		opts.RowHeight = 90
	}
	r := x.Height()
	height := opts.RowHeight*float64(r) + 80
	pos := func(a bitstr.Addr) (float64, float64) {
		frac := (float64(a.Index) + 0.5) / float64(int64(1)<<uint(a.Level))
		return 20 + frac*(opts.Width-40), 40 + float64(a.Level)*opts.RowHeight
	}
	if _, err := fmt.Fprintf(w,
		`<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		opts.Width, height, opts.Width, height); err != nil {
		return err
	}
	fmt.Fprintf(w, `<rect width="100%%" height="100%%" fill="white"/>`+"\n")
	// Edges first (under the vertices).
	var err error
	x.Vertices(func(a bitstr.Addr) bool {
		ax, ay := pos(a)
		if a.Level < r {
			for _, c := range []bitstr.Addr{a.Child(0), a.Child(1)} {
				cx, cy := pos(c)
				if _, err = fmt.Fprintf(w,
					`<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black" stroke-width="1"/>`+"\n",
					ax, ay, cx, cy); err != nil {
					return false
				}
			}
		}
		if s, ok := a.Successor(); ok {
			sx, sy := pos(s)
			if _, err = fmt.Fprintf(w,
				`<path d="M %.1f %.1f Q %.1f %.1f %.1f %.1f" stroke="#3366cc" stroke-width="1" fill="none"/>`+"\n",
				ax, ay, (ax+sx)/2, ay-14, sx, sy); err != nil {
				return false
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	// Vertices.
	x.Vertices(func(a bitstr.Addr) bool {
		ax, ay := pos(a)
		fill := "white"
		if opts.Loads != nil {
			shade := max(255-10*opts.Loads[a.ID()], 0)
			fill = fmt.Sprintf("rgb(%d,%d,255)", shade, shade)
		}
		if c, ok := opts.Highlight[a.ID()]; ok {
			fill = c
		}
		if _, err = fmt.Fprintf(w,
			`<circle cx="%.1f" cy="%.1f" r="9" fill="%s" stroke="black" stroke-width="1.2"/>`+"\n",
			ax, ay, fill); err != nil {
			return false
		}
		if opts.Labels {
			if _, err = fmt.Fprintf(w,
				`<text x="%.1f" y="%.1f" font-size="9" text-anchor="middle" font-family="monospace">%s</text>`+"\n",
				ax, ay+22, a); err != nil {
				return false
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, "</svg>")
	return err
}

// LoadsOf converts an assignment into the Loads map WriteSVG shades by.
func LoadsOf(assignment []bitstr.Addr) map[int64]int {
	loads := make(map[int64]int)
	for _, a := range assignment {
		loads[a.ID()]++
	}
	return loads
}

// HighlightN builds a Highlight map marking a and its N(a) neighborhood —
// the Figure 2 picture.
func HighlightN(x *xtree.XTree, a bitstr.Addr) map[int64]string {
	h := map[int64]string{a.ID(): "#e5554f"}
	for _, b := range x.NSet(a) {
		if b != a {
			h[b.ID()] = "#f4b183"
		}
	}
	return h
}
