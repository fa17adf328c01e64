//go:build race

package opc

// raceEnabled reports whether the race detector is active; under -race a
// sync.Pool drops some of what it is handed, so allocation bounds skip.
const raceEnabled = true
