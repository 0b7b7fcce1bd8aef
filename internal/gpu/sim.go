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
	// started and copied are the pool sizes (poolFor) of the
	// launches Start and CopyFrom last put on the device.
	started, copied poolSize
	// active lists, in SM order, the SMs Continue walks:
	// those not drained yet (no live warp and no block left to
	// dispatch), and with a slot sink attached every SM, because a
	// drained SM's slots are still credited each cycle. An SM drains
	// for the rest of its launch, so Continue drops it once; Start and
	// CopyFrom rebuild the list.
	active []*SM

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
// stopped at, alongside the error. It is Start followed by Continue to
// completion: a launch resumed from a copy (CopyFrom) runs the same
// loop from a later cycle.
func (d *Device) Run(l *Launch, hooks *Hooks) (*Stats, error) {
	if err := d.Start(l, hooks); err != nil {
		return nil, err
	}
	return d.Continue(math.MaxInt64)
}

// Start puts the device in the launch-start state of l: per-run
// microarchitectural state reset, counters zeroed and the first blocks
// dispatched, the clock at cycle 0. Continue then simulates it.
func (d *Device) Start(l *Launch, hooks *Hooks) error {
	if err := d.attach(l, hooks); err != nil {
		return err
	}
	d.Stats = Stats{}
	d.Cyc = 0
	d.nextBlock = 0
	d.blocksDone = 0
	d.ageSeq = 0

	// Reset per-run microarchitectural state, recycling warp and block
	// objects (and their register-file backing) into the SM pools.
	d.started = d.poolFor(l)
	keep := d.started.max(d.copied)
	for _, sm := range d.SMs {
		sm.recycle(keep)
		sm.live, sm.suspended, sm.atBarrier = 0, 0, 0
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
	d.resetActive()
	return nil
}

// resetActive rebuilds the list of SMs the loop walks from their state.
func (d *Device) resetActive() {
	d.active = d.active[:0]
	for _, sm := range d.SMs {
		if d.slots != nil || !sm.drained() {
			d.active = append(d.active, sm)
		}
	}
}

// drained reports whether the SM has nothing left to do in the launch:
// no live warp, and no block left to dispatch to it.
func (sm *SM) drained() bool {
	return sm.live == 0 && sm.dev.nextBlock == sm.dev.launch.Grid.Count()
}

// poolSize bounds an SM's warp and block pools.
type poolSize struct{ warps, blocks int }

func (p poolSize) max(o poolSize) poolSize {
	return poolSize{max(p.warps, o.warps), max(p.blocks, o.blocks)}
}

// poolFor returns the most warps and blocks an SM can hold resident in
// launch l, attached: all its pools need to keep for it. A device that
// only starts launches, such as a grid worker's, keeps what its current
// launch can use and never the storage of a larger one. A trial device
// alternates copying a main launch and starting its Steps, so Start
// and CopyFrom each also keep room for the last launch the other put on
// the device.
func (d *Device) poolFor(l *Launch) poolSize {
	blocks := min(d.blocksPerSM, l.Grid.Count())
	return poolSize{blocks * ((l.Block.Count() + d.Cfg.WarpSize - 1) / d.Cfg.WarpSize), blocks}
}

// attach validates l and makes it, with hooks, the device's current
// launch.
func (d *Device) attach(l *Launch, hooks *Hooks) error {
	if err := l.Validate(&d.Cfg); err != nil {
		return err
	}
	d.launch = l
	d.kern = compileKernel(l.Prog, hooks)
	d.hooks = hooks
	d.slots = nil
	if hooks != nil {
		d.slots = hooks.Slots
	}
	d.blocksPerSM = l.BlocksPerSM(&d.Cfg)
	if d.blocksPerSM == 0 {
		return fmt.Errorf("gpu: kernel %q does not fit on an SM (regs=%d shared=%dB)",
			l.Prog.Name, l.Prog.NumRegs, l.Prog.SharedBytes)
	}
	return nil
}

// Continue simulates the current launch (set up by Start or CopyFrom)
// until it completes or the clock reaches until. In the second case the
// launch is paused at cycle until exactly: the partial stats come back
// with a nil error, CopyFrom can copy the state, and a later Continue
// picks the launch up where it stopped. Every cycle is stepped: each
// live SM steps, and a drained one is skipped unless a slot sink counts
// its idle slots.
func (d *Device) Continue(until int64) (*Stats, error) {
	l := d.launch
	budget := d.MaxCycles
	if l.MaxCycles > 0 {
		budget = l.MaxCycles
	}
	// One clock comparison per iteration serves both the budget and the
	// pause point.
	limit := min(budget, until)
	total := l.Grid.Count()
	stopPoll := 0
	for {
		// Poll the wall-clock watchdog on entry, even into a launch that
		// is already complete (copied at its end), and then sparsely: a
		// time.Now syscall per cycle would dominate short kernels.
		if l.Stop != nil {
			if stopPoll == 0 && l.Stop() {
				return d.partial(fmt.Errorf("gpu: %q: %w at cycle %d; %d/%d blocks done",
					l.Prog.Name, ErrWallClock, d.Cyc, d.blocksDone, total))
			}
			if stopPoll++; stopPoll >= 1024 {
				stopPoll = 0
			}
		}
		if d.blocksDone >= total {
			return d.partial(nil)
		}
		if d.Cyc >= limit {
			if d.Cyc < budget {
				return d.partial(nil)
			}
			return d.partial(fmt.Errorf("gpu: %q: %w after %d cycles; %d/%d blocks done",
				l.Prog.Name, ErrCycleLimit, budget, d.blocksDone, total))
		}
		keep := d.active[:0]
		for i, sm := range d.active {
			if sm.live == 0 && d.nextBlock == total {
				// Drained: step would only book the SM's idle slots,
				// which only a slot sink counts.
				if d.slots == nil {
					continue
				}
				sm.creditDrained(d.Cyc)
			} else if err := sm.step(d.Cyc); err != nil {
				d.active = append(keep, d.active[i:]...)
				return d.partial(fmt.Errorf("cycle %d: %w", d.Cyc, err))
			}
			keep = append(keep, sm)
		}
		d.active = keep
		d.hooks.onCycle(d)
		d.Cyc++
	}
}

// partial closes the launch's stats at the current cycle and returns
// them with err.
func (d *Device) partial(err error) (*Stats, error) {
	d.Stats.Cycles = d.Cyc
	return &d.Stats, err
}
