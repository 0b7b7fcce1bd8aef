package main

import (
	"crypto/sha256"
	"encoding/hex"
)

// scale sizes the workloads. fullScale is what the benchmark measures;
// the tests run the same workload functions at toyScale.
type scale struct {
	// gridBenches limits the grid to the first n benchmarks by name
	// (0: all 34).
	gridBenches int
	// gridSetups is how many extra times a grid run assembles the suite
	// to sample its set-up time.
	gridSetups int
	// suite is the campaign workloads' benchmark list.
	suite []string
	// trials is the uniform campaign's trials per benchmark (campaign and
	// fleet); sampledBudget the stratified campaign's per-benchmark budget.
	trials, sampledBudget int
	// ciTarget is the stratified campaign's early-stop CI half-width.
	ciTarget float64
}

// quickSuite is flameinject's quick suite: regular streaming, blocked
// reuse with barriers, atomics, divergence, extended-section and
// multi-kernel workloads.
var quickSuite = []string{"Triad", "SGEMM", "Histogram", "BFS", "LUD", "NW", "PF", "SRAD"}

var fullScale = scale{
	gridSetups: 100, suite: quickSuite,
	trials: 32, sampledBudget: 48, ciTarget: 0.05,
}

var toyScale = scale{
	gridBenches: 2, gridSetups: 2, suite: []string{"Triad", "Histogram"},
	trials: 4, sampledBudget: 24, ciTarget: 0.05,
}

// pins are the expected outputs at fullScale and the pinned seed. A
// change to the simulator, compiler or campaign engine that moves any of
// them must update them here, deliberately.
type pins struct {
	seed uint64
	// campaign and sampled are SHA-256 digests of the report JSON; the
	// fleet's merged report must equal campaign's byte for byte.
	campaign, sampled string
	// gridStats is the SHA-256 digest of every grid cell's gpu.Stats.
	gridStats string
	// gridGeomeans are the Figure 15 geomeans in harness.Figure13_14's
	// scheme order, formatted with strconv 'g' -1 (exact).
	gridGeomeans []string
}

var defaultPins = pins{
	seed:      1,
	campaign:  "457c944b58f5e23c37dbc3d2da8938cce78f45d2dbb3c42faf08319ce758ddf7",
	sampled:   "ff70aaa4779248ee72963895f9778f4a47f7b1c701e73f687dca068938ca025b",
	gridStats: "c62fd75bca72331d3dcf3b9533d0e3fde2d513dbd2253e6de458ce99f9c0ec92",
	gridGeomeans: []string{
		"0.9923973675386624", // Renaming
		"1.0614228103465062", // Checkpointing
		"1.0137775725569986", // Sensor+Renaming (Flame)
		"1.1111736051703063", // Sensor+Checkpointing
		"1.1663865711413661", // Dup+Renaming
		"1.2222834515908088", // Dup+Checkpointing
		"1.0886772167562182", // Hybrid+Renaming
		"1.1267396925400377", // Hybrid+Checkpointing
	},
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
