//go:build !race

package gpu_test

// raceBuild reports a build with the race detector, which slows the
// simulator about tenfold.
const raceBuild = false
