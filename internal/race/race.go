//go:build race

// Package race reports whether the race detector is compiled in.  The
// allocation gates read it: under the detector a sync.Pool drops a random
// quarter of what it is handed, so code that pools its scratch may
// allocate it again, and a gate holds such code to its unpooled budget.
package race

// Enabled is true in a race-detector build.
const Enabled = true
