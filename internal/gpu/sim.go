package gpu

import (
	"errors"
	"fmt"
	"math"

	"flame/internal/isa"
)

// ErrCycleLimit is wrapped by Run's error when a launch exhausts its
// cycle budget (deadlock, livelock or runaway kernel). Campaign
// classifiers match it with errors.Is to tell a Hang from other
// simulator failures.
var ErrCycleLimit = errors.New("cycle limit exceeded")

// ErrWallClock is wrapped by Run's error when the launch's Stop
// predicate fired — the wall-clock watchdog distributed campaign
// workers arm so a pathological simulation cannot hold a worker
// process forever even when the cycle budget is generous.
var ErrWallClock = errors.New("wall-clock deadline exceeded")

// Device is a simulated GPU.
type Device struct {
	Cfg   Config
	Mem   *GlobalMem
	SMs   []*SM
	l2    *cacheModel
	Cyc   int64
	Stats Stats

	launch *Launch
	kern   *compiledKernel
	hooks  *Hooks
	// slots is the attached scheduler-slot attribution sink (Hooks.Slots),
	// cached here so the per-cycle scan pays one pointer load when no
	// telemetry is attached.
	slots       SlotSink
	blocksPerSM int
	nextBlock   int
	blocksDone  int
	ageSeq      int64
	// issued is set by any SM executing an instruction this cycle; a
	// cycle that ends with it clear is fully stalled and eligible for
	// event-driven fast-forwarding.
	issued bool

	// MaxCycles bounds a run (deadlock/livelock detection).
	MaxCycles int64
}

// NewDevice creates a device with the given configuration and global
// memory size in bytes.
func NewDevice(cfg Config, memBytes int) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		Cfg:       cfg,
		Mem:       NewGlobalMem(memBytes),
		l2:        newCache(cfg.L2Sets, cfg.L2Ways, cfg.LineBytes),
		MaxCycles: 200_000_000,
	}
	for i := 0; i < cfg.NumSMs; i++ {
		d.SMs = append(d.SMs, newSM(i, d))
	}
	return d, nil
}

// Launch returns the launch currently running (nil outside Run).
func (d *Device) Launch() *Launch { return d.launch }

// Kernel returns the compiled kernel of the current launch.
func (d *Device) Kernel() *isa.Program { return d.launch.Prog }

// Cycle returns the current simulation cycle.
func (d *Device) Cycle() int64 { return d.Cyc }

// Run simulates one kernel launch to completion and returns its stats.
// Hooks may be nil. Global memory contents persist across runs (host
// code initializes and validates them via Mem). A launch that fails
// once simulation has started (a fault, the cycle budget, the Stop
// watchdog) returns its partial stats, Cycles being the cycle it
// stopped at, alongside the error.
func (d *Device) Run(l *Launch, hooks *Hooks) (*Stats, error) {
	if err := l.Validate(&d.Cfg); err != nil {
		return nil, err
	}
	d.launch = l
	d.kern = compileKernel(l.Prog, hooks)
	d.hooks = hooks
	d.slots = nil
	if hooks != nil {
		d.slots = hooks.Slots
	}
	d.Stats = Stats{}
	d.Cyc = 0
	d.nextBlock = 0
	d.blocksDone = 0
	d.ageSeq = 0
	d.blocksPerSM = l.BlocksPerSM(&d.Cfg)
	if d.blocksPerSM == 0 {
		return nil, fmt.Errorf("gpu: kernel %q does not fit on an SM (regs=%d shared=%dB)",
			l.Prog.Name, l.Prog.NumRegs, l.Prog.SharedBytes)
	}

	// Reset per-run microarchitectural state, recycling warp and block
	// objects (and their register-file backing) into the SM pools.
	for _, sm := range d.SMs {
		for _, w := range sm.Warps {
			if w != nil {
				sm.warpPool = append(sm.warpPool, w)
			}
		}
		for _, b := range sm.Blocks {
			sm.blockPool = append(sm.blockPool, b)
		}
		sm.Warps = sm.Warps[:0]
		sm.Blocks = sm.Blocks[:0]
		sm.live, sm.suspended, sm.atBarrier = 0, 0, 0
		sm.valid, sm.sbWait, sm.sbNext = 0, 0, math.MaxInt64
		sm.lsuBusyUntil = 0
		sm.sfuBusyUntil = 0
		sm.dramFree = 0
		sm.l2Free = 0
		sm.mshrRelease = sm.mshrRelease[:0]
		sm.l1.reset()
		for i := range sm.scheds {
			sm.scheds[i] = newScheduler(d.Cfg.Scheduler, d.Cfg.TwoLevelGroup)
		}
	}
	d.l2.reset()

	// Initial block dispatch, round-robin over SMs.
	for _, sm := range d.SMs {
		sm.dispatch()
	}

	budget := d.MaxCycles
	if l.MaxCycles > 0 {
		budget = l.MaxCycles
	}
	total := l.Grid.Count()
	skip := !d.Cfg.NoCycleSkip
	stopPoll := 0
	for d.blocksDone < total {
		// Poll the wall-clock watchdog sparsely: a time.Now syscall per
		// iteration would dominate short kernels, and with cycle skipping
		// one iteration can cover thousands of cycles anyway.
		if l.Stop != nil {
			if stopPoll == 0 && l.Stop() {
				return d.partial(fmt.Errorf("gpu: %q: %w at cycle %d; %d/%d blocks done",
					l.Prog.Name, ErrWallClock, d.Cyc, d.blocksDone, total))
			}
			if stopPoll++; stopPoll >= 1024 {
				stopPoll = 0
			}
		}
		if d.Cyc >= budget {
			return d.partial(fmt.Errorf("gpu: %q: %w after %d cycles; %d/%d blocks done",
				l.Prog.Name, ErrCycleLimit, budget, d.blocksDone, total))
		}
		d.issued = false
		for _, sm := range d.SMs {
			if sm.live == 0 && d.nextBlock == total {
				// Drained: step would only book the SM's idle slots.
				sm.creditDrained(d.Cyc, 1)
				continue
			}
			if err := sm.step(d.Cyc); err != nil {
				return d.partial(fmt.Errorf("cycle %d: %w", d.Cyc, err))
			}
		}
		d.hooks.onCycle(d)
		d.Cyc++
		if skip && !d.issued && d.blocksDone < total {
			d.fastForward(budget)
		}
	}
	return d.partial(nil)
}

// partial closes the launch's stats at the current cycle and returns
// them with err.
func (d *Device) partial(err error) (*Stats, error) {
	d.Stats.Cycles = d.Cyc
	return &d.Stats, err
}

// fastForward advances the clock over cycles that are provably identical
// no-ops: no SM issued this cycle, so nothing can change until the
// earliest pending wake event (a scoreboard release, a busy unit or MSHR
// freeing, or a hook-side event such as an RBQ pop or fault detection).
// The skipped span's statistics are credited exactly as the naive loop
// would have booked them, so every reported number is bit-identical with
// skipping on or off. The wake scan runs after hooks' OnCycle (pops and
// detections may have just unsuspended warps); a warp that is ready now
// yields wake == from and the skip degenerates to nothing.
func (d *Device) fastForward(budget int64) {
	from := d.Cyc
	wake := budget
	for _, sm := range d.SMs {
		if t := sm.nextWake(from); t < wake {
			wake = t
		}
	}
	if wake <= from {
		return
	}
	wake = d.hooks.onAdvance(d, from, wake)
	if wake <= from {
		return
	}
	if d.slots != nil {
		// Slot attribution must match the naive loop cycle for cycle: a
		// blocked warp's classification can change mid-span (e.g. its
		// scoreboard clears while the LSU stays busy, scoreboard→memory),
		// so stop the jump at the first threshold any warp crosses and
		// let the next fastForward pass re-classify from there.
		for _, sm := range d.SMs {
			wake = sm.nextSlotChange(from, wake)
		}
	}
	span := wake - from
	for _, sm := range d.SMs {
		sm.creditIdle(from, span, &d.Stats)
	}
	d.Cyc = wake
}
