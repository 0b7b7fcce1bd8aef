// Package sensor models the acoustic sensor meshes Flame deploys per SM
// (Sections II-A, III-B, VI-A1). A particle strike emits a sound wave
// traveling ~10 km/s over silicon; a mesh of S cantilever sensors over an
// SM of logic area A detects any strike within the worst-case detection
// latency (WCDL).
//
// The model is the worst-case propagation distance of a square sensor
// cell, sqrt(2·A/S), divided by the wave speed, minus a fixed 9-cycle
// sensing-pipeline credit. The constants are calibrated so that the model
// reproduces the paper's published points exactly: on GTX480
// (17.5 mm²/SM, 700 MHz), 50/200/300 sensors give 50/20/15 cycles of WCDL
// (Figure 12), and the Table II sensor counts for 20-cycle WCDL hold for
// all four GPU architectures.
package sensor

import (
	"fmt"
	"math"
)

// WaveSpeedMMPerUS is the acoustic wave propagation speed in silicon
// (10 km/s = 10 mm/µs).
const WaveSpeedMMPerUS = 10.0

// pipelineCreditCycles is the fixed detection-pipeline credit calibrated
// against the paper's Figure 12.
const pipelineCreditCycles = 9

// sensorAreaMM2 is the area of one acoustic sensor (~1 µm²).
const sensorAreaMM2 = 1e-6

// meshWiringPerSensorMM2 is the interconnect wiring area attributed to
// each sensor; a 200-sensor mesh then costs ~0.001 mm², "much less than
// 0.01 mm²" per the paper.
const meshWiringPerSensorMM2 = 5e-6

// Deployment describes an acoustic sensor mesh on one SM.
type Deployment struct {
	// SensorsPerSM is the number of sensors deployed on each SM.
	SensorsPerSM int
	// SMAreaMM2 is the SM logic area covered, in mm².
	SMAreaMM2 float64
	// FreqMHz is the core clock in MHz (converts latency to cycles).
	FreqMHz float64
}

// WCDL returns the worst-case detection latency in core cycles
// (at least 1).
func (d Deployment) WCDL() int {
	if d.SensorsPerSM <= 0 || d.SMAreaMM2 <= 0 || d.FreqMHz <= 0 {
		return math.MaxInt32
	}
	distMM := math.Sqrt(2 * d.SMAreaMM2 / float64(d.SensorsPerSM))
	cycles := int(math.Round(d.FreqMHz*distMM/WaveSpeedMMPerUS)) - pipelineCreditCycles
	if cycles < 1 {
		return 1
	}
	return cycles
}

// AreaOverhead returns the fraction of SM area spent on the sensor mesh
// (sensors plus interconnect).
func (d Deployment) AreaOverhead() float64 {
	return float64(d.SensorsPerSM) * (sensorAreaMM2 + meshWiringPerSensorMM2) / d.SMAreaMM2
}

// SensorsFor returns the minimum sensors per SM achieving a WCDL of at
// most target cycles, or an error if no count up to maxSensors suffices.
func SensorsFor(target int, smAreaMM2, freqMHz float64) (int, error) {
	const maxSensors = 1 << 20
	lo, hi := 1, maxSensors
	d := Deployment{SMAreaMM2: smAreaMM2, FreqMHz: freqMHz}
	d.SensorsPerSM = hi
	if d.WCDL() > target {
		return 0, fmt.Errorf("sensor: WCDL %d unreachable below %d sensors", target, maxSensors)
	}
	for lo < hi {
		mid := (lo + hi) / 2
		d.SensorsPerSM = mid
		if d.WCDL() <= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// GPUSpec describes a GPU for sensor deployment purposes.
type GPUSpec struct {
	Name       string
	FreqMHz    float64
	SMCount    int
	SMAreaMM2  float64 // logic area to cover per SM
	DieAreaMM2 float64
}

// Specs lists the four GPU architectures evaluated in the paper. SM logic
// areas are back-derived from Table II (the sensor counts achieving
// 20-cycle WCDL) except GTX480's, which the paper gives directly.
var Specs = []GPUSpec{
	{Name: "GTX480", FreqMHz: 700, SMCount: 16, SMAreaMM2: 17.5, DieAreaMM2: 512},
	{Name: "RTX2060", FreqMHz: 1365, SMCount: 30, SMAreaMM2: 5.78, DieAreaMM2: 445},
	{Name: "GV100", FreqMHz: 1136, SMCount: 80, SMAreaMM2: 4.30, DieAreaMM2: 815},
	{Name: "TITANX", FreqMHz: 1000, SMCount: 24, SMAreaMM2: 11.30, DieAreaMM2: 601},
}

// Curve returns (sensors, WCDL) samples for a spec over a sensor range,
// reproducing one series of the paper's Figure 12.
func Curve(spec GPUSpec, minSensors, maxSensors, step int) []CurvePoint {
	var pts []CurvePoint
	for s := minSensors; s <= maxSensors; s += step {
		d := Deployment{SensorsPerSM: s, SMAreaMM2: spec.SMAreaMM2, FreqMHz: spec.FreqMHz}
		pts = append(pts, CurvePoint{Sensors: s, WCDL: d.WCDL()})
	}
	return pts
}

// CurvePoint is one sample of a Figure 12 series.
type CurvePoint struct {
	Sensors int
	WCDL    int
}
