//go:build race

package wiretest

// RaceEnabled reports whether the race detector is on. Its
// instrumentation allocates on its own account, so allocation counts
// mean nothing under it.
const RaceEnabled = true
