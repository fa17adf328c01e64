package timinglib

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"postopc/internal/stdcell"
)

// WriteLiberty emits the cell library in a Liberty-flavored text format —
// NLDM delay/slew tables per arc, pin capacitances and cell leakage — so
// downstream tools (and humans) can inspect exactly what the annotated
// timing model contains. Pass a non-nil annotator to export a
// silicon-calibrated (post-OPC) library view; nil exports drawn timing.
//
// The output is structurally Liberty (library/cell/pin/timing groups with
// lu_tables) but deliberately minimal: one template, ns/pF/µW units left
// in ps/fF/nW to match the rest of the repository.
func (tl *Lib) WriteLiberty(w io.Writer, lib *stdcell.Library, ann Annotator, slewsPS, loadsFF []float64) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "library (%s) {\n", lib.PDK.Name)
	fmt.Fprintf(bw, "  /* generated by postopc timinglib; time unit ps, cap unit fF, leakage nW */\n")
	fmt.Fprintf(bw, "  lu_table_template (tmpl_%dx%d) {\n", len(slewsPS), len(loadsFF))
	fmt.Fprintf(bw, "    variable_1 : input_net_transition;\n")
	fmt.Fprintf(bw, "    variable_2 : total_output_net_capacitance;\n")
	fmt.Fprintf(bw, "    index_1 (%q);\n", joinFloats(slewsPS))
	fmt.Fprintf(bw, "    index_2 (%q);\n", joinFloats(loadsFF))
	fmt.Fprintf(bw, "  }\n")
	for _, name := range lib.Names() {
		cell := lib.Cells[name]
		if cell.Kind == stdcell.Fill {
			continue
		}
		ev, err := tl.Evaluate(cell, ann)
		if err != nil {
			return err
		}
		tabs, err := tl.BuildTables(ev, slewsPS, loadsFF)
		if err != nil {
			return err
		}
		cin := tl.Cin(cell)
		fmt.Fprintf(bw, "  cell (%s) {\n", name)
		fmt.Fprintf(bw, "    cell_leakage_power : %.4f;\n", ev.LeakNW)
		if cell.Kind == stdcell.Seq {
			fmt.Fprintf(bw, "    ff (IQ) { clocked_on : \"CK\"; next_state : \"D\"; }\n")
		}
		for _, in := range cell.Inputs {
			fmt.Fprintf(bw, "    pin (%s) {\n", in)
			fmt.Fprintf(bw, "      direction : input;\n")
			fmt.Fprintf(bw, "      capacitance : %.4f;\n", cin[in])
			fmt.Fprintf(bw, "    }\n")
		}
		fmt.Fprintf(bw, "    pin (%s) {\n", cell.Output)
		fmt.Fprintf(bw, "      direction : output;\n")
		for _, in := range cell.Inputs {
			fmt.Fprintf(bw, "      timing () {\n")
			fmt.Fprintf(bw, "        related_pin : %q;\n", in)
			fmt.Fprintf(bw, "        timing_sense : %s;\n", libertySense(cell.Unate))
			writeLUT(bw, "cell_rise", tabs.DelayRise)
			writeLUT(bw, "cell_fall", tabs.DelayFall)
			writeLUT(bw, "rise_transition", tabs.SlewRise)
			writeLUT(bw, "fall_transition", tabs.SlewFall)
			fmt.Fprintf(bw, "      }\n")
		}
		fmt.Fprintf(bw, "    }\n")
		fmt.Fprintf(bw, "  }\n")
	}
	fmt.Fprintf(bw, "}\n")
	return bw.Flush()
}

func libertySense(u stdcell.Unate) string {
	switch u {
	case stdcell.Inverting:
		return "negative_unate"
	case stdcell.NonInverting:
		return "positive_unate"
	default:
		return "non_unate"
	}
}

func writeLUT(bw *bufio.Writer, name string, t *Table) {
	fmt.Fprintf(bw, "        %s (tmpl_%dx%d) {\n", name, len(t.SlewsPS), len(t.LoadsFF))
	fmt.Fprintf(bw, "          values ( \\\n")
	for i, row := range t.Values {
		sep := ", \\"
		if i == len(t.Values)-1 {
			sep = " \\"
		}
		fmt.Fprintf(bw, "            %q%s\n", joinFloats(row), sep)
	}
	fmt.Fprintf(bw, "          );\n")
	fmt.Fprintf(bw, "        }\n")
}

func joinFloats(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.4f", v)
	}
	return strings.Join(parts, ", ")
}
