//go:build !race

// Package israce reports whether the race detector is built in, for
// tests whose allocation counts only hold without its instrumentation.
package israce

const Enabled = false
