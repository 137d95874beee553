package obs

import (
	"runtime"
	"runtime/debug"
	"sync"
)

// BuildInfo identifies a running binary: module path and version, Go
// toolchain, and — when the binary was built inside a git checkout —
// the VCS revision, commit time, and dirty flag. A running node with
// no version surface cannot be told apart from the one beside it; this
// is what /v2/version, `qoserved version`, and the build_info metric
// report.
type BuildInfo struct {
	Module    string
	Version   string
	GoVersion string
	Revision  string
	BuildTime string
	Modified  bool
}

var buildOnce = sync.OnceValue(readBuild)

// Build reports the running binary's build info, read once from
// runtime/debug.ReadBuildInfo. Fields that the build did not stamp
// (e.g. VCS data outside a git checkout) are empty; Version falls back
// to "(devel)" the way the toolchain reports unreleased modules.
func Build() BuildInfo { return buildOnce() }

func readBuild() BuildInfo {
	b := BuildInfo{GoVersion: runtime.Version(), Version: "(devel)"}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	b.Module = info.Main.Path
	if info.Main.Version != "" {
		b.Version = info.Main.Version
	}
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			b.Revision = s.Value
		case "vcs.time":
			b.BuildTime = s.Value
		case "vcs.modified":
			b.Modified = s.Value == "true"
		}
	}
	return b
}

// Revision renders a VCS revision the way every version line does:
// "unknown" when the build carries none, "-dirty" when the checkout
// had local changes.
func Revision(rev string, modified bool) string {
	if rev == "" {
		rev = "unknown"
	}
	if modified {
		rev += "-dirty"
	}
	return rev
}
