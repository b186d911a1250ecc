//go:build race

package dagtest

// RaceEnabled reports whether the race detector is on. Under it,
// sync.Pool drops pooled values at random, so allocation counts of code
// that reuses pooled buffers are not meaningful.
const RaceEnabled = true
