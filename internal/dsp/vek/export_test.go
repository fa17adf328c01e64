package vek

// The generic (Go loop) kernel bodies, exported for the assembly-vs-generic
// bit-identity tests. On amd64 hosts with AVX2 the public kernels dispatch
// to AVX2 assembly; these always run the Go path.
var (
	ButterflyGroupGeneric = butterflyGroupGeneric
	ButterflyRowGeneric   = butterflyRowGeneric
	CMulGeneric           = cmulGeneric
	AccIntensityGeneric   = accIntensityGeneric
	ConvRowGeneric        = convRowGeneric
	ConvColGeneric        = convColGeneric
)
