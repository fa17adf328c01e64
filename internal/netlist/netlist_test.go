package netlist

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"postopc/internal/pdk"
	"postopc/internal/stdcell"
)

var testLib *stdcell.Library

func lib(t *testing.T) *stdcell.Library {
	t.Helper()
	if testLib == nil {
		l, err := stdcell.NewLibrary(pdk.N90())
		if err != nil {
			t.Fatal(err)
		}
		testLib = l
	}
	return testLib
}

func TestInverterChain(t *testing.T) {
	n := InverterChain(5)
	if len(n.Gates) != 5 || len(n.Inputs) != 1 || len(n.Outputs) != 1 {
		t.Fatalf("chain shape: %+v", n.Summary())
	}
	conns, err := n.Connectivity(lib(t))
	if err != nil {
		t.Fatal(err)
	}
	// "in" has one sink, the chain output drives the PO.
	if len(conns["in"].Sinks) != 1 || conns["in"].Driver.Gate != -1 {
		t.Fatalf("input conn = %+v", conns["in"])
	}
	out := n.Outputs[0]
	last := conns[out]
	if len(last.Sinks) != 1 || last.Sinks[0].Gate != -1 {
		t.Fatalf("output conn = %+v", last)
	}
	if InverterChain(0).Summary().Gates != 1 {
		t.Fatal("degenerate chain")
	}
}

func TestRippleCarryAdder(t *testing.T) {
	n := RippleCarryAdder(8)
	if got := len(n.Gates); got != 8*5 {
		t.Fatalf("rca8 gates = %d, want 40", got)
	}
	if len(n.Inputs) != 17 || len(n.Outputs) != 9 {
		t.Fatalf("rca8 io = %d/%d", len(n.Inputs), len(n.Outputs))
	}
	if _, err := n.Connectivity(lib(t)); err != nil {
		t.Fatal(err)
	}
}

func TestArrayMultiplier(t *testing.T) {
	for _, bits := range []int{2, 4, 6, 8} {
		n := ArrayMultiplier(bits)
		if len(n.Inputs) != 2*bits || len(n.Outputs) != 2*bits {
			t.Fatalf("mult%d io = %d/%d", bits, len(n.Inputs), len(n.Outputs))
		}
		if _, err := n.Connectivity(lib(t)); err != nil {
			t.Fatalf("mult%d: %v", bits, err)
		}
		for _, o := range n.Outputs {
			if o == "" {
				t.Fatalf("mult%d: empty output net", bits)
			}
		}
	}
}

func TestRandomLogicDeterministic(t *testing.T) {
	a := RandomLogic(200, 16, 42)
	b := RandomLogic(200, 16, 42)
	var bufA, bufB bytes.Buffer
	if err := WriteVerilog(&bufA, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteVerilog(&bufB, b); err != nil {
		t.Fatal(err)
	}
	if bufA.String() != bufB.String() {
		t.Fatal("same seed must give identical netlists")
	}
	c := RandomLogic(200, 16, 43)
	var bufC bytes.Buffer
	_ = WriteVerilog(&bufC, c)
	if bufA.String() == bufC.String() {
		t.Fatal("different seeds should differ")
	}
	if _, err := a.Connectivity(lib(t)); err != nil {
		t.Fatal(err)
	}
	if got := len(a.Gates); got != 200 {
		t.Fatalf("gates = %d", got)
	}
}

func TestVerilogRoundTrip(t *testing.T) {
	orig := ArrayMultiplier(4)
	var buf bytes.Buffer
	if err := WriteVerilog(&buf, orig); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseVerilog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Name != orig.Name {
		t.Fatalf("name %s != %s", parsed.Name, orig.Name)
	}
	if len(parsed.Gates) != len(orig.Gates) {
		t.Fatalf("gates %d != %d", len(parsed.Gates), len(orig.Gates))
	}
	if strings.Join(parsed.Inputs, ",") != strings.Join(orig.Inputs, ",") {
		t.Fatal("inputs differ")
	}
	if strings.Join(parsed.Outputs, ",") != strings.Join(orig.Outputs, ",") {
		t.Fatal("outputs differ")
	}
	// Per-gate connections survive.
	for i, g := range orig.Gates {
		pg := parsed.Gates[i]
		if pg.Name != g.Name || pg.Cell != g.Cell {
			t.Fatalf("gate %d: %s/%s != %s/%s", i, pg.Name, pg.Cell, g.Name, g.Cell)
		}
		for pin, net := range g.Conn {
			if pg.Conn[pin] != net {
				t.Fatalf("gate %s pin %s: %s != %s", g.Name, pin, pg.Conn[pin], net)
			}
		}
	}
	// Round-tripped netlist still validates.
	if _, err := parsed.Connectivity(lib(t)); err != nil {
		t.Fatal(err)
	}
}

func TestParseVerilogComments(t *testing.T) {
	src := `
// a comment
module top (a, y); // trailing
  input a;
  output y;
  INV_X1 u0 (.A(a), .Y(y));
endmodule
`
	n, err := ParseVerilog(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "top" || len(n.Gates) != 1 {
		t.Fatalf("parsed %+v", n)
	}
}

func TestParseVerilogErrors(t *testing.T) {
	// One module per file: a second module, or a status line appended
	// after endmodule, is rejected instead of dropped.
	trailing := []string{
		"module m (a); input a; INV_X1 u0 (.A(a)); endmodule\n" +
			"module n (b); input b; INV_X1 u1 (.A(b)); endmodule\n",
		"module m (a); input a; INV_X1 u0 (.A(a)); endmodule\nwrote metrics to m.prom\n",
	}
	cases := []string{
		"",
		"module",
		"module m (a;",
		"module m (a); input a gibberish",
		"module m (); INV_X1 u0 (.A x); endmodule",
		"module m (); INV_X1 u0 (.A(x), .A(z), .Y(y)); endmodule",
		"module m (); INV_X1 u0 (.A(x), .Y(y));", // missing endmodule
		// Punctuation is never a name.
		"module m (a); input ); endmodule",
		"module ( (a); endmodule",
		"module m (;); endmodule",
		"module m (); wire ,; endmodule",
		"module m (); ( u0 (.A(x)); endmodule",
		"module m (); INV_X1 ; (.A(x)); endmodule",
		"module m (); INV_X1 u0 (.((x)); endmodule",
		"module m (); INV_X1 u0 (.A(,)); endmodule",
		trailing[0],
		trailing[1],
	}
	for i, src := range cases {
		if _, err := ParseVerilog(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: expected parse error: %q", i, src)
		}
	}

	dup := "module m (a, y); input a; output y; wire n;\n" +
		"INV_X1 u1 (.A(a), .Y(n)); INV_X1 u1 (.A(n), .Y(y)); endmodule"
	if _, err := ParseVerilog(strings.NewReader(dup)); !errors.Is(err, ErrDuplicateInstance) {
		t.Errorf("repeated instance name: err = %v, want ErrDuplicateInstance", err)
	}
	for i, src := range trailing {
		if _, err := ParseVerilog(strings.NewReader(src)); !errors.Is(err, ErrTrailingInput) {
			t.Errorf("trailing case %d: err = %v, want ErrTrailingInput", i, err)
		}
	}
}

// FuzzParseVerilog fuzzes the netlist reader. Arbitrary text must never
// panic it, and whatever it accepts must write back stably: write, parse
// the written text, and write again must give the same bytes.
func FuzzParseVerilog(f *testing.F) {
	// The designs the examples build, and the parser tests' inputs.
	for _, n := range []*Netlist{InverterChain(6), RippleCarryAdder(2), ArrayMultiplier(2)} {
		var buf bytes.Buffer
		if err := WriteVerilog(&buf, n); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	for _, src := range []string{
		"// a comment\nmodule top (a, y); // trailing\n  input a;\n  output y;\n  INV_X1 u0 (.A(a), .Y(y));\nendmodule\n",
		"module m (a); input a gibberish",
		"module m (); INV_X1 u0 (.A(x), .A(z), .Y(y)); endmodule",
		"module m (a); input ); endmodule",
		"module m (); INV_X1 u1 (.A(a)); INV_X1 u1 (.A(b)); endmodule",
		"module m (a); input a; INV_X1 u0 (.A(a)); endmodule\n" +
			"module n (b); input b; INV_X1 u1 (.A(b)); endmodule\n",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := ParseVerilog(strings.NewReader(src))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := WriteVerilog(&first, n); err != nil {
			t.Fatal(err)
		}
		again, err := ParseVerilog(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written netlist does not parse: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := WriteVerilog(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write is not stable:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}

func TestConnectivityErrors(t *testing.T) {
	l := lib(t)
	// Unknown cell.
	n := &Netlist{Name: "bad"}
	n.AddGate("u0", "MYSTERY_X1", map[string]string{"A": "a", "Y": "y"})
	if _, err := n.Connectivity(l); err == nil {
		t.Error("unknown cell accepted")
	}
	// Unknown pin.
	n = &Netlist{Name: "bad", Inputs: []string{"a"}}
	n.AddGate("u0", "INV_X1", map[string]string{"Q": "a", "Y": "y"})
	if _, err := n.Connectivity(l); err == nil {
		t.Error("unknown pin accepted")
	}
	// Unconnected pin.
	n = &Netlist{Name: "bad"}
	n.AddGate("u0", "NAND2_X1", map[string]string{"A": "a", "Y": "y"})
	if _, err := n.Connectivity(l); err == nil {
		t.Error("unconnected pin accepted")
	}
	// Multiple drivers.
	n = &Netlist{Name: "bad", Inputs: []string{"a"}}
	n.AddGate("u0", "INV_X1", map[string]string{"A": "a", "Y": "y"})
	n.AddGate("u1", "INV_X1", map[string]string{"A": "a", "Y": "y"})
	if _, err := n.Connectivity(l); err == nil {
		t.Error("multiple drivers accepted")
	}
	// Undriven input net.
	n = &Netlist{Name: "bad"}
	n.AddGate("u0", "INV_X1", map[string]string{"A": "ghost", "Y": "y"})
	if _, err := n.Connectivity(l); err == nil {
		t.Error("undriven net accepted")
	}
	// Undriven primary output.
	n = &Netlist{Name: "bad", Inputs: []string{"a"}, Outputs: []string{"nope"}}
	n.AddGate("u0", "INV_X1", map[string]string{"A": "a", "Y": "y"})
	if _, err := n.Connectivity(l); err == nil {
		t.Error("undriven PO accepted")
	}
	// Fill cell instantiation.
	n = &Netlist{Name: "bad"}
	n.AddGate("u0", "FILL_X1", map[string]string{})
	if _, err := n.Connectivity(l); err == nil {
		t.Error("fill cell accepted")
	}
}

func TestSummaryAndFindGate(t *testing.T) {
	n := RippleCarryAdder(2)
	st := n.Summary()
	if st.Gates != 10 || st.ByCell["XOR2_X1"] != 4 || st.ByCell["NAND2_X1"] != 6 {
		t.Fatalf("summary = %+v", st)
	}
	if n.FindGate("u0") != 0 || n.FindGate("nope") != -1 {
		t.Fatal("FindGate")
	}
}
