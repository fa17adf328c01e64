package layout

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"postopc/internal/geom"
)

func TestChipRoundTrip(t *testing.T) {
	ch := buildChip(t)
	var buf bytes.Buffer
	if err := WriteChip(&buf, ch); err != nil {
		t.Fatal(err)
	}
	f, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Chip == nil {
		t.Fatal("chip missing after round trip")
	}
	if f.Chip.Name != ch.Name || f.Chip.Die != ch.Die {
		t.Fatalf("chip header: %s %v", f.Chip.Name, f.Chip.Die)
	}
	if len(f.Chip.Instances) != len(ch.Instances) {
		t.Fatalf("instances %d != %d", len(f.Chip.Instances), len(ch.Instances))
	}
	for i := range ch.Instances {
		a, b := &ch.Instances[i], &f.Chip.Instances[i]
		if a.Name != b.Name || a.Origin != b.Origin || a.Orient != b.Orient ||
			a.Cell.Name != b.Cell.Name {
			t.Fatalf("instance %d differs: %+v vs %+v", i, a, b)
		}
	}
	// Geometry identical: same window flattening.
	w := ch.Die
	if len(ch.WindowShapes(LayerPoly, w)) != len(f.Chip.WindowShapes(LayerPoly, w)) {
		t.Fatal("flattened geometry differs")
	}
	// Gate sites identical.
	ga, gb := ch.AllGateSites(), f.Chip.AllGateSites()
	if len(ga) != len(gb) {
		t.Fatalf("gate sites %d != %d", len(ga), len(gb))
	}
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatalf("gate site %d: %+v vs %+v", i, ga[i], gb[i])
		}
	}
}

func TestCellRoundTrip(t *testing.T) {
	c := invCell()
	var buf bytes.Buffer
	if err := WriteCell(&buf, c); err != nil {
		t.Fatal(err)
	}
	f, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Cells) != 1 || f.Chip != nil {
		t.Fatalf("parsed %d cells, chip=%v", len(f.Cells), f.Chip)
	}
	got := f.Cells[0]
	if got.Name != c.Name || got.Box != c.Box {
		t.Fatalf("cell header %s %v", got.Name, got.Box)
	}
	if len(got.Shapes) != len(c.Shapes) || len(got.Gates) != len(c.Gates) {
		t.Fatal("cell contents differ")
	}
	for i := range c.Gates {
		if got.Gates[i] != c.Gates[i] {
			t.Fatalf("gate %d: %+v vs %+v", i, got.Gates[i], c.Gates[i])
		}
	}
}

func TestReadComments(t *testing.T) {
	src := `plf 1
# a comment
cell C box 0 0 10 10
  rect poly 1 1 2 2
endcell
`
	f, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Cells) != 1 || len(f.Cells[0].Shapes) != 1 {
		t.Fatalf("parsed %+v", f)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"plf 2",
		"rect poly 0 0 1 1",
		"cell A box 0 0 x 10\nendcell",
		"cell A box 0 0 10 10\n rect mystery 0 0 1 1\nendcell",
		"cell A box 0 0 10 10\n gate G A quantum 0 0 1 1\nendcell",
		"cell A box 0 0 10 10",
		"cell A box 0 0 10 10\nendcell\ncell A box 0 0 10 10\nendcell",
		"chip c die 0 0 10 10\n inst u1 NOPE 0 0 R0\nendchip",
		"chip c die 0 0 10 10\n inst u1",
		"chip c die 0 0 10 10",
		"endcell",
		"endchip",
		"bogus line here",
		"cell A box 0 0 10 10\n gate G A nmos 0 0 1 1 extra\nendcell",
		"chip c die 0 0 10 10\n inst u1 C 0 0 R9\nendchip",
	}
	for i, src := range cases {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("case %d accepted: %q", i, src)
		}
	}
}

// TestReadHugeDieBoundsIndex reads a chip whose die is far larger than any
// placement: its spatial index must stay within maxIndexBins instead of
// asking for one bin per micrometre of die (10^12 bins here), and queries
// must still work.
func TestReadHugeDieBoundsIndex(t *testing.T) {
	src := "cell C box 0 0 680 2600\n  rect poly 295 290 385 2310\nendcell\n" +
		"chip c die 0 0 1000 999999999999999\n  inst u1 C 0 0 R0\nendchip\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err := Read(strings.NewReader(src))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
		t.Fatalf("reading one instance allocated %d bytes", got)
	}
	if got := f.Chip.WindowShapes(LayerPoly, geom.R(0, 0, 680, 2600)); len(got) != 1 {
		t.Fatalf("window query found %d poly shapes, want 1", len(got))
	}
}

func TestSVGOutput(t *testing.T) {
	ch := buildChip(t)
	svg := NewSVG(ch.Die, 400)
	svg.AddChip(ch)
	svg.AddOverlay([]geom.Polygon{geom.R(10, 10, 200, 200).Polygon()},
		"fill:none;stroke:#000;stroke-width:1")
	var buf bytes.Buffer
	if err := svg.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "</svg>", "<polygon", "<rect"} {
		if !strings.Contains(out, want) {
			t.Fatalf("SVG missing %q:\n%.300s", want, out)
		}
	}
	// Empty overlays and unknown layers don't break rendering.
	svg2 := NewSVG(geom.R(0, 0, 100, 100), 0)
	svg2.AddRects(Layer(250), []geom.Rect{geom.R(0, 0, 10, 10)})
	svg2.AddOverlay(nil, "fill:none")
	if err := svg2.Write(&buf); err != nil {
		t.Fatal(err)
	}
}
