//go:build !go1.23

package sim

// Processes are iter.Pull coroutines (proc.go), so this package needs a Go
// 1.23 or newer toolchain. An older one stops here, on a name that says why.
var _ = simProcRequiresGo1_23
