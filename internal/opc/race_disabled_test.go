//go:build !race

package opc

const raceEnabled = false
