//go:build !race

package harness

// raceBuild reports a build with the race detector, which slows the
// simulator about tenfold.
const raceBuild = false
