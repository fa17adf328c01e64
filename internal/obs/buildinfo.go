package obs

import (
	"runtime"
	"runtime/debug"
	"strings"

	"postopc/internal/dsp/vek"
)

// BuildInfo identifies the binary a telemetry export came from: go
// toolchain, platform, the GOAMD64 level it was built for, the vector-
// kernel path chosen at start-up, the CPU features actually detected at
// run time, and the module version. Bench hosts (and future multi-tenant
// daemons) are distinguishable from metrics files and ledgers alone.
type BuildInfo struct {
	GoVersion   string
	GOOS        string
	GOARCH      string
	VekLevel    string
	VekPath     string // "avx2" or "generic" (vek.SIMDEnabled)
	CPUFeatures string
	Module      string
}

// GetBuildInfo assembles the build identity of the running binary.
func GetBuildInfo() BuildInfo {
	bi := BuildInfo{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		VekLevel:  vek.BuildLevel(),
		VekPath:   "generic",
		Module:    "postopc",
	}
	if bi.VekLevel == "" {
		bi.VekLevel = "none"
	}
	if vek.SIMDEnabled() {
		bi.VekPath = "avx2"
	}
	var feats []string
	cpu := vek.CPU()
	if cpu.AVX2 {
		feats = append(feats, "avx2")
	}
	if cpu.FMA {
		feats = append(feats, "fma")
	}
	if len(feats) == 0 {
		feats = append(feats, "none")
	}
	bi.CPUFeatures = strings.Join(feats, ",")
	if info, ok := debug.ReadBuildInfo(); ok && info.Main.Path != "" {
		bi.Module = info.Main.Path
		if v := info.Main.Version; v != "" && v != "(devel)" {
			bi.Module += "@" + v
		}
	}
	return bi
}
