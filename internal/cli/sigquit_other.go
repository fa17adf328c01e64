//go:build !unix

package cli

// installQuitDump is a no-op where SIGQUIT does not exist; fatal exits
// still dump the last spans via Fatal.
func installQuitDump() {}
