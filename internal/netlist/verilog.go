package netlist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode"
)

// WriteVerilog emits the netlist as a structural Verilog subset:
//
//	module name (a, b, y);
//	  input a;
//	  input b;
//	  output y;
//	  NAND2_X1 u1 (.A(a), .B(b), .Y(y));
//	endmodule
func WriteVerilog(w io.Writer, n *Netlist) error {
	bw := bufio.NewWriter(w)
	ports := append(append([]string{}, n.Inputs...), n.Outputs...)
	fmt.Fprintf(bw, "module %s (%s);\n", n.Name, strings.Join(ports, ", "))
	for _, in := range n.Inputs {
		fmt.Fprintf(bw, "  input %s;\n", in)
	}
	for _, out := range n.Outputs {
		fmt.Fprintf(bw, "  output %s;\n", out)
	}
	// Internal wires: every net that is not a port.
	isPort := map[string]bool{}
	for _, p := range ports {
		isPort[p] = true
	}
	wireSet := map[string]bool{}
	for _, g := range n.Gates {
		for _, net := range g.Conn {
			if !isPort[net] {
				wireSet[net] = true
			}
		}
	}
	wires := make([]string, 0, len(wireSet))
	for wn := range wireSet {
		wires = append(wires, wn)
	}
	sort.Strings(wires)
	for _, wn := range wires {
		fmt.Fprintf(bw, "  wire %s;\n", wn)
	}
	for _, g := range n.Gates {
		pins := make([]string, 0, len(g.Conn))
		for p := range g.Conn {
			pins = append(pins, p)
		}
		sort.Strings(pins)
		var conns []string
		for _, p := range pins {
			conns = append(conns, fmt.Sprintf(".%s(%s)", p, g.Conn[p]))
		}
		fmt.Fprintf(bw, "  %s %s (%s);\n", g.Cell, g.Name, strings.Join(conns, ", "))
	}
	fmt.Fprintln(bw, "endmodule")
	return bw.Flush()
}

// ErrDuplicateInstance is returned (wrapped) by ParseVerilog when two cell
// instances of the module share a name: STA and extraction address gates
// by instance name, so a repeat would silently shadow the earlier gate.
var ErrDuplicateInstance = errors.New("netlist: duplicate instance name")

// ErrTrailingInput is returned (wrapped) by ParseVerilog when tokens follow
// the module's endmodule: a second module, or text appended to the file,
// would otherwise be dropped without a word.
var ErrTrailingInput = errors.New("netlist: input after endmodule")

// ParseVerilog reads the structural subset produced by WriteVerilog. It is
// not a general Verilog parser: one module per file (ErrTrailingInput),
// explicit pin connections, no expressions, no buses. Every name — module,
// port, net, cell, instance and pin — must be an identifier token, and
// instance names must be unique (ErrDuplicateInstance).
func ParseVerilog(r io.Reader) (*Netlist, error) {
	toks, err := tokenize(r)
	if err != nil {
		return nil, err
	}
	p := &vparser{toks: toks}
	n, err := p.module()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t != "" {
		return nil, fmt.Errorf("%w: %q (token %d)", ErrTrailingInput, t, p.pos)
	}
	return n, nil
}

type vparser struct {
	toks []string
	pos  int
}

func (p *vparser) peek() string {
	if p.pos >= len(p.toks) {
		return ""
	}
	return p.toks[p.pos]
}

func (p *vparser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *vparser) expect(t string) error {
	if got := p.next(); got != t {
		return fmt.Errorf("netlist: expected %q, got %q (token %d)", t, got, p.pos-1)
	}
	return nil
}

// name consumes one identifier token naming a what. Punctuation and the
// end of input are not names: accepting them would parse text that
// WriteVerilog cannot write back.
func (p *vparser) name(what string) (string, error) {
	t := p.next()
	if t == "" || (len(t) == 1 && strings.Contains(punctuation, t)) {
		return "", fmt.Errorf("netlist: expected %s name, got %q (token %d)", what, t, p.pos-1)
	}
	return t, nil
}

func (p *vparser) module() (*Netlist, error) {
	if err := p.expect("module"); err != nil {
		return nil, err
	}
	name, err := p.name("module")
	if err != nil {
		return nil, err
	}
	n := &Netlist{Name: name}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	for p.peek() != ")" && p.peek() != "" {
		// The port list is re-derived from the input/output declarations.
		if _, err := p.name("port"); err != nil {
			return nil, err
		}
		if p.peek() == "," {
			p.next()
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	instances := map[string]bool{}
	for {
		switch t := p.peek(); t {
		case "endmodule":
			p.next()
			return n, nil
		case "":
			return nil, fmt.Errorf("netlist: unexpected end of file in module %s", n.Name)
		case "input", "output", "wire":
			p.next()
			for {
				name, err := p.name(t)
				if err != nil {
					return nil, err
				}
				switch t {
				case "input":
					n.Inputs = append(n.Inputs, name)
				case "output":
					n.Outputs = append(n.Outputs, name)
				}
				if sep := p.next(); sep == ";" {
					break
				} else if sep != "," {
					return nil, fmt.Errorf("netlist: bad separator %q in %s declaration", sep, t)
				}
			}
		default:
			// Cell instantiation: CELL name (.PIN(net), ...);
			cell, err := p.name("cell")
			if err != nil {
				return nil, err
			}
			inst, err := p.name("instance")
			if err != nil {
				return nil, err
			}
			if instances[inst] {
				return nil, fmt.Errorf("%w %s in module %s", ErrDuplicateInstance, inst, n.Name)
			}
			instances[inst] = true
			if err := p.expect("("); err != nil {
				return nil, err
			}
			conn := map[string]string{}
			for p.peek() != ")" {
				if err := p.expect("."); err != nil {
					return nil, err
				}
				pin, err := p.name("pin")
				if err != nil {
					return nil, err
				}
				if err := p.expect("("); err != nil {
					return nil, err
				}
				net, err := p.name("net")
				if err != nil {
					return nil, err
				}
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				if _, dup := conn[pin]; dup {
					return nil, fmt.Errorf("netlist: %s.%s connected twice", inst, pin)
				}
				conn[pin] = net
				if p.peek() == "," {
					p.next()
				}
			}
			p.next() // ")"
			if err := p.expect(";"); err != nil {
				return nil, err
			}
			n.AddGate(inst, cell, conn)
		}
	}
}

// punctuation lists the single-character tokens of the subset; every other
// token is an identifier.
const punctuation = "(),;."

// tokenize splits the input into identifiers and punctuation, dropping //
// comments.
func tokenize(r io.Reader) ([]string, error) {
	var toks []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		var cur strings.Builder
		flush := func() {
			if cur.Len() > 0 {
				toks = append(toks, cur.String())
				cur.Reset()
			}
		}
		for _, c := range line {
			switch {
			case unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' || c == '[' || c == ']' || c == '\\' || c == '/':
				cur.WriteRune(c)
			case unicode.IsSpace(c):
				flush()
			case strings.ContainsRune(punctuation, c):
				flush()
				toks = append(toks, string(c))
			default:
				return nil, fmt.Errorf("netlist: unexpected character %q", c)
			}
		}
		flush()
	}
	return toks, sc.Err()
}
