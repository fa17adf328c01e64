// Package drc is a morphological design-rule checker over the layout
// database: minimum width, minimum space, contact enclosure/landing and
// gate endcap checks derived from the kit's rule deck. It validates that
// the generated cell library (and anything a user feeds the flow) is
// legal before lithography gets to judge it.
package drc

import (
	"fmt"
	"sort"

	"postopc/internal/geom"
	"postopc/internal/layout"
	"postopc/internal/pdk"
)

// Violation is one design-rule failure.
type Violation struct {
	// Rule identifies the failed check, e.g. "poly.space".
	Rule string
	// At marks the offending area (cell or chip coordinates).
	At geom.Rect
	// RequiredNM is the rule value; MeasuredNM the offending dimension
	// when the check measures one (0 for pure coverage checks).
	RequiredNM, MeasuredNM geom.Coord
	// Context names the cell (or instance) the violation was found in.
	Context string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("%s at %v (need %dnm) in %s", v.Rule, v.At, v.RequiredNM, v.Context)
}

// layerRule is one width/space pair for a layer.
type layerRule struct {
	layer        layout.Layer
	width, space geom.Coord
}

// rulesFor derives the per-layer deck from the kit. Poly width uses the
// gate length (the narrowest legal poly), so gate strips are clean and
// anything thinner is not.
func rulesFor(p *pdk.PDK) []layerRule {
	r := p.Rules
	return []layerRule{
		{layout.LayerPoly, r.GateLengthNM, r.PolySpaceNM},
		{layout.LayerDiffusion, r.DiffWidthNM, r.DiffWidthNM},
		{layout.LayerContact, r.ContactNM, r.ContactSpaceNM},
		{layout.LayerMetal1, r.Metal1WidthNM, r.Metal1SpaceNM},
	}
}

// CheckCell runs the deck over one cell and returns its violations,
// deterministically ordered.
func CheckCell(p *pdk.PDK, c *layout.Cell) []Violation {
	var out []Violation
	regions := map[layout.Layer]geom.Region{}
	region := func(l layout.Layer) geom.Region {
		if rg, ok := regions[l]; ok {
			return rg
		}
		rg := geom.RegionFromRects(c.ShapesOn(l)...).Normalize()
		regions[l] = rg
		return rg
	}

	for _, lr := range rulesFor(p) {
		rg := region(lr.layer)
		if rg.Empty() {
			continue
		}
		name := lr.layer.String()
		for _, r := range rg.NarrowerThan(lr.width) {
			out = append(out, Violation{
				Rule: name + ".width", At: r,
				RequiredNM: lr.width, MeasuredNM: min(r.W(), r.H()),
				Context: c.Name,
			})
		}
		for _, r := range rg.GapsNarrowerThan(lr.space) {
			out = append(out, Violation{
				Rule: name + ".space", At: r,
				RequiredNM: lr.space, MeasuredNM: min(r.W(), r.H()),
				Context: c.Name,
			})
		}
	}

	// Contact landing: every contact must land fully on poly or diffusion
	// or metal1 (power-rail taps land on M1 in this library).
	landing := region(layout.LayerPoly).
		Union(region(layout.LayerDiffusion)).
		Union(region(layout.LayerMetal1))
	for _, ct := range c.ShapesOn(layout.LayerContact) {
		if !landing.Covers(geom.RegionFromRects(ct)) {
			out = append(out, Violation{
				Rule: "contact.landing", At: ct,
				RequiredNM: p.Rules.ContactNM,
				Context:    c.Name,
			})
		}
	}

	// Gate endcap: poly must extend past each channel end by PolyExtNM.
	poly := region(layout.LayerPoly)
	for _, g := range c.Gates {
		ch := g.Channel
		ext := p.Rules.PolyExtNM
		above := geom.R(ch.X0, ch.Y1, ch.X1, ch.Y1+ext)
		below := geom.R(ch.X0, ch.Y0-ext, ch.X1, ch.Y0)
		for _, probe := range []geom.Rect{above, below} {
			if !poly.Covers(geom.RegionFromRects(probe)) {
				out = append(out, Violation{
					Rule: "poly.endcap", At: probe,
					RequiredNM: ext,
					Context:    c.Name + "/" + g.Name,
				})
			}
		}
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.At.X0 != b.At.X0 {
			return a.At.X0 < b.At.X0
		}
		return a.At.Y0 < b.At.Y0
	})
	return out
}

// CheckLibrary checks every cell of a library; the result maps cell name
// to its violations (clean cells are omitted).
func CheckLibrary(p *pdk.PDK, cells map[string]*layout.Cell) map[string][]Violation {
	out := map[string][]Violation{}
	for name, c := range cells {
		if v := CheckCell(p, c); len(v) > 0 {
			out[name] = v
		}
	}
	return out
}

// CheckWindow runs the width/space deck over a flattened chip window —
// this is how abutment-induced violations (cell A's shapes against cell
// B's) are caught, which per-cell checks cannot see.
func CheckWindow(p *pdk.PDK, ch *layout.Chip, window geom.Rect) []Violation {
	var out []Violation
	for _, lr := range rulesFor(p) {
		rg := geom.RegionFromRects(ch.WindowShapes(lr.layer, window)...).Normalize()
		if rg.Empty() {
			continue
		}
		name := lr.layer.String()
		// Ignore residues touching the window boundary: clipped shapes
		// there are artifacts of the window, not of the layout.
		interior := window.Expand(-lr.space)
		for _, r := range rg.NarrowerThan(lr.width) {
			if !interior.ContainsRect(r) {
				continue
			}
			out = append(out, Violation{Rule: name + ".width", At: r,
				RequiredNM: lr.width, MeasuredNM: min(r.W(), r.H()), Context: ch.Name})
		}
		for _, r := range rg.GapsNarrowerThan(lr.space) {
			if !interior.ContainsRect(r) {
				continue
			}
			out = append(out, Violation{Rule: name + ".space", At: r,
				RequiredNM: lr.space, MeasuredNM: min(r.W(), r.H()), Context: ch.Name})
		}
	}
	return out
}
