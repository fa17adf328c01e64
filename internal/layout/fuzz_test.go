package layout_test

import (
	"bytes"
	"testing"

	"postopc/internal/layout"
	"postopc/internal/netlist"
	"postopc/internal/pdk"
	"postopc/internal/place"
	"postopc/internal/stdcell"
)

// FuzzLayoutRead fuzzes the .plf reader. Arbitrary text must never panic
// it, and whatever it accepts must write back stably: the chip (or, in a
// file without one, each cell) written, read back and written again must
// give the same bytes.
func FuzzLayoutRead(f *testing.F) {
	// The placed chips of the examples' designs, and the reader tests'
	// inputs.
	lib, err := stdcell.NewLibrary(pdk.N90())
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []*netlist.Netlist{netlist.InverterChain(6), netlist.RippleCarryAdder(2)} {
		pl, err := place.Place(n, lib, place.Options{})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := layout.WriteChip(&buf, pl.Chip); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	for _, src := range []string{
		"plf 1\n# a comment\ncell C box 0 0 10 10\n  rect poly 1 1 2 2\nendcell\n",
		"cell A box 0 0 10 10\n gate G A nmos 0 0 1 1\nendcell\ncell B box 0 0 5 5\nendcell\n",
		"cell A box 0 0 10 10\nendcell\ncell A box 0 0 10 10\nendcell",
		"chip c die 0 0 10 10\n inst u1 NOPE 0 0 R0\nendchip",
		"cell C box 0 0 10 10\nendcell\nchip c die 0 0 10 10\n inst u1 C 0 0 R9\nendchip",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := layout.Read(bytes.NewReader([]byte(src)))
		if err != nil {
			return
		}
		write := func(fl *layout.File) []byte {
			var buf bytes.Buffer
			if fl.Chip != nil {
				if err := layout.WriteChip(&buf, fl.Chip); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			for _, c := range fl.Cells {
				if err := layout.WriteCell(&buf, c); err != nil {
					t.Fatal(err)
				}
			}
			return buf.Bytes()
		}
		first := write(file)
		again, err := layout.Read(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("written layout does not read: %v\n%s", err, first)
		}
		if second := write(again); !bytes.Equal(first, second) {
			t.Fatalf("write is not stable:\n%s\nthen\n%s", first, second)
		}
	})
}
