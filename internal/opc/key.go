package opc

import "postopc/internal/geom"

// AppendKey appends the rule table's breakpoints and biases: the deck
// shapes the corrected mask, so the flow's pattern cache folds it into the
// window signature.
func (rt RuleTable) AppendKey(dst []byte) []byte {
	dst = geom.AppendKeyInt(dst, int64(len(rt.SpacesNM)))
	for _, s := range rt.SpacesNM {
		dst = geom.AppendKeyInt(dst, int64(s))
	}
	dst = geom.AppendKeyInt(dst, int64(len(rt.BiasNM)))
	for _, b := range rt.BiasNM {
		dst = geom.AppendKeyInt(dst, int64(b))
	}
	return dst
}
