//go:build !go1.23

package sim

// The engine runs process bodies as iter.Pull coroutines (engine.go),
// which need Go 1.23 or newer. On an older toolchain engine.go is left
// out of the build, and this declaration stops it first, with an error
// that names the requirement.
type _ simEngineNeedsGo1_23OrNewer
