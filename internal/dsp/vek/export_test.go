package vek

// The generic (Go loop) kernel bodies, exported for the assembly-vs-generic
// bit-identity tests. On GOAMD64=v3 builds the SoA kernels dispatch to
// AVX2 assembly and on every amd64 build the convolution kernels run
// scalar assembly; these always run the Go path.
var (
	ButterflyColGeneric = butterflyColGeneric
	ButterflyRowGeneric = butterflyRowGeneric
	CMulGeneric         = cmulGeneric
	AccIntensityGeneric = accIntensityGeneric
	ConvRowGeneric      = convRowGeneric
	AddScaledGeneric    = addScaledGeneric
)
