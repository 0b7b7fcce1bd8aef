// Package gpu implements a cycle-level SIMT GPU simulator — the
// GPGPU-Sim substitute the evaluation runs on. It models streaming
// multiprocessors with configurable warp schedulers (GTO, LRR, OLD,
// Two-Level), per-warp scoreboards, IPDOM-stack branch divergence, a
// coalescing L1/L2/DRAM memory hierarchy, banked shared memory,
// generation-counted block barriers, atomics, and occupancy-limited block
// dispatch. Resilience schemes attach through the Hooks interface without
// the simulator knowing about them.
package gpu

import "fmt"

// SchedulerKind selects the warp scheduling policy (Section VI-B3).
type SchedulerKind uint8

// Warp scheduler policies.
const (
	// GTO (greedy-then-oldest) runs a single warp until it stalls, then
	// picks the oldest ready warp. GPGPU-Sim v4.0's default.
	GTO SchedulerKind = iota
	// LRR (loose round-robin) rotates over ready warps each cycle.
	LRR
	// OLD always picks the oldest ready warp.
	OLD
	// TwoLevel keeps a small active set scheduled LRR, swapping out
	// warps that stall on long-latency operations.
	TwoLevel
)

// String returns the scheduler's name as used in the paper.
func (s SchedulerKind) String() string {
	switch s {
	case GTO:
		return "GTO"
	case LRR:
		return "LRR"
	case OLD:
		return "OLD"
	case TwoLevel:
		return "2-Level"
	}
	return fmt.Sprintf("sched(%d)", uint8(s))
}

// Config describes a GPU architecture.
type Config struct {
	Name    string
	FreqMHz float64
	// SMLogicAreaMM2 is the per-SM logic area the sensor mesh must cover.
	SMLogicAreaMM2 float64

	NumSMs          int
	WarpSize        int
	MaxWarpsPerSM   int
	MaxBlocksPerSM  int
	RegistersPerSM  int
	SharedMemPerSM  int
	SchedulersPerSM int
	Scheduler       SchedulerKind
	// TwoLevelGroup is the active-set size of the two-level scheduler.
	TwoLevelGroup int

	// Latencies, in core cycles.
	ALULat    int
	SFULat    int
	SharedLat int
	L1Lat     int
	L2Lat     int
	DRAMLat   int

	// L1 data cache geometry (per SM).
	L1Sets, L1Ways, LineBytes int
	// L2 geometry (device-wide).
	L2Sets, L2Ways int
	// MSHRs bounds outstanding L1 misses per SM.
	MSHRs int
	// SharedBanks is the number of shared-memory banks.
	SharedBanks int
	// DRAMCyclesPerLine is each SM's share of DRAM bandwidth, expressed
	// as service cycles per cache line (total BW / SM count). Memory-
	// bound kernels become bandwidth-limited through this, which is what
	// lets latecomer latencies (including WCDL waits) hide.
	DRAMCyclesPerLine int
	// L2CyclesPerLine is the SM's share of L2 bandwidth.
	L2CyclesPerLine int
}

// GTX480 returns the paper's default architecture (Fermi).
func GTX480() Config {
	return Config{
		Name: "GTX480", FreqMHz: 700, SMLogicAreaMM2: 17.5,
		NumSMs: 16, WarpSize: 32, MaxWarpsPerSM: 48, MaxBlocksPerSM: 8,
		RegistersPerSM: 32768, SharedMemPerSM: 48 << 10,
		SchedulersPerSM: 2, Scheduler: GTO, TwoLevelGroup: 8,
		ALULat: 4, SFULat: 16, SharedLat: 24, L1Lat: 30, L2Lat: 180, DRAMLat: 440,
		L1Sets: 32, L1Ways: 4, LineBytes: 128,
		L2Sets: 512, L2Ways: 8, MSHRs: 32, SharedBanks: 32,
		DRAMCyclesPerLine: 8, L2CyclesPerLine: 4,
	}
}

// TITANX returns the Maxwell-class configuration.
func TITANX() Config {
	c := GTX480()
	c.Name, c.FreqMHz, c.SMLogicAreaMM2 = "TITANX", 1000, 11.30
	c.NumSMs, c.MaxWarpsPerSM, c.MaxBlocksPerSM = 24, 64, 16
	c.RegistersPerSM, c.SharedMemPerSM = 65536, 96<<10
	c.SchedulersPerSM = 4
	c.ALULat, c.SFULat, c.SharedLat = 4, 14, 22
	c.L1Lat, c.L2Lat, c.DRAMLat = 28, 170, 400
	c.L1Sets, c.L2Sets = 48, 1024
	c.DRAMCyclesPerLine, c.L2CyclesPerLine = 9, 4
	return c
}

// GV100 returns the Volta-class configuration.
func GV100() Config {
	c := GTX480()
	c.Name, c.FreqMHz, c.SMLogicAreaMM2 = "GV100", 1136, 4.30
	c.NumSMs, c.MaxWarpsPerSM, c.MaxBlocksPerSM = 80, 64, 32
	c.RegistersPerSM, c.SharedMemPerSM = 65536, 96<<10
	c.SchedulersPerSM = 4
	c.ALULat, c.SFULat, c.SharedLat = 4, 12, 19
	c.L1Lat, c.L2Lat, c.DRAMLat = 26, 160, 380
	c.L1Sets, c.L2Sets = 64, 2048
	c.DRAMCyclesPerLine, c.L2CyclesPerLine = 13, 5
	return c
}

// RTX2060 returns the Turing-class configuration (the newest GPGPU-Sim
// v4.0 supports).
func RTX2060() Config {
	c := GTX480()
	c.Name, c.FreqMHz, c.SMLogicAreaMM2 = "RTX2060", 1365, 5.78
	c.NumSMs, c.MaxWarpsPerSM, c.MaxBlocksPerSM = 30, 32, 16
	c.RegistersPerSM, c.SharedMemPerSM = 65536, 64<<10
	c.SchedulersPerSM = 4
	c.ALULat, c.SFULat, c.SharedLat = 4, 12, 19
	c.L1Lat, c.L2Lat, c.DRAMLat = 25, 150, 360
	c.L1Sets, c.L2Sets = 64, 1024
	c.DRAMCyclesPerLine, c.L2CyclesPerLine = 16, 6
	return c
}

// ConfigByName returns a named architecture configuration.
func ConfigByName(name string) (Config, error) {
	switch name {
	case "GTX480":
		return GTX480(), nil
	case "TITANX":
		return TITANX(), nil
	case "GV100":
		return GV100(), nil
	case "RTX2060":
		return RTX2060(), nil
	}
	return Config{}, fmt.Errorf("gpu: unknown architecture %q", name)
}

// Architectures lists the four evaluated configurations.
func Architectures() []Config {
	return []Config{GTX480(), TITANX(), GV100(), RTX2060()}
}

// Validate checks configuration sanity.
func (c *Config) Validate() error {
	switch {
	case c.NumSMs <= 0 || c.WarpSize <= 0 || c.WarpSize > 32:
		return fmt.Errorf("gpu: bad SM/warp geometry")
	case c.MaxWarpsPerSM <= 0 || c.MaxBlocksPerSM <= 0:
		return fmt.Errorf("gpu: bad occupancy limits")
	case c.MaxWarpsPerSM > 64:
		// The issue scan keeps one bit per warp slot in a uint64.
		return fmt.Errorf("gpu: MaxWarpsPerSM %d exceeds the 64 warp slots an SM supports", c.MaxWarpsPerSM)
	case c.SchedulersPerSM <= 0:
		return fmt.Errorf("gpu: need at least one scheduler")
	case c.LineBytes < 4 || c.LineBytes%4 != 0:
		return fmt.Errorf("gpu: bad cache line size")
	}
	return nil
}
