//go:build unix

package cli

import (
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

// installQuitDump arms SIGQUIT as a span dump: when a run wedges, ^\
// prints the last recorded spans (the tail of work that led into the
// hang) followed by all goroutine stacks, then exits 2 — the same
// contract as the Go runtime's own SIGQUIT, with the span dump in front.
// Installed only on ledger runs, so uninstrumented tools keep the
// runtime's default behaviour.
func installQuitDump() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	go func() {
		<-ch
		dumpSpans()
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		os.Stderr.Write(buf)
		os.Exit(2)
	}()
}
