package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
)

// CodeRevision returns the VCS revision the binary was built from, or "dev"
// when none is recorded (go test, go run from a non-VCS tree). The result
// cache and scrape labels both key on this value, so two different builds
// must never share one. A build from a dirty tree differs from the clean
// commit, and two uncommitted edits differ from each other, so such a
// build's revision carries a "-dirty-" suffix with a short hash of the
// running executable. The value is computed once per process.
func CodeRevision() string { return codeRevision() }

var codeRevision = sync.OnceValue(func() string {
	var settings []debug.BuildSetting
	if info, ok := debug.ReadBuildInfo(); ok {
		settings = info.Settings
	}
	return revisionFrom(settings, executableHash)
})

// revisionFrom derives the code revision from a binary's VCS build settings.
// exeHash is consulted only for a dirty tree, the one case whose commit does
// not identify the code.
func revisionFrom(settings []debug.BuildSetting, exeHash func() string) string {
	rev, dirty := "", false
	for _, s := range settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	switch {
	case rev == "":
		return "dev"
	case dirty:
		return rev + "-dirty-" + exeHash()
	default:
		return rev
	}
}

// executableHash returns the first 12 hex digits of the running
// executable's SHA-256, or "unknown" when the file cannot be read.
func executableHash() string {
	path, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// Build identifies one binary build: the code revision and the Go toolchain
// that compiled it. It is reported by /healthz and by each binary's -version
// flag so scrapes and logs can be labeled by revision.
type Build struct {
	CodeRev   string `json:"code_rev"`
	GoVersion string `json:"go_version"`
}

// BuildInfo returns the current binary's build identity.
func BuildInfo() Build {
	return Build{CodeRev: CodeRevision(), GoVersion: runtime.Version()}
}

// PrintVersion writes the standard -version output for a binary.
func PrintVersion(w io.Writer, name string) {
	b := BuildInfo()
	fmt.Fprintf(w, "%s revision %s (%s)\n", name, b.CodeRev, b.GoVersion)
}

// StartPprof serves net/http/pprof on its own listener at addr and returns
// the listener (so :0 resolves to a real port the caller can log). Profiling
// is opt-in and isolated from the API mux on purpose: the debug surface is
// never reachable through the service port, only on the address the operator
// explicitly opened. The returned listener's server runs until the listener
// is closed; serve errors after close are discarded.
func StartPprof(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return ln, nil
}
