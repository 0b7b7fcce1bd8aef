package telemetry

import (
	"encoding/json"
	"fmt"
	"io"

	"flame/internal/gpu"
)

// TraceWriter records warp occupancy as a Chrome/Perfetto trace_event
// JSON document (open it in ui.perfetto.dev or chrome://tracing). Each
// SM renders as a process, each warp slot as a thread; the tracks show:
//
//   - issue spans ("X" complete events, 1 cycle, named by opcode),
//   - "rbq-wait" spans while a warp sits suspended in the region
//     boundary queue (WCDL sensor wait),
//   - "barrier-wait" spans while a warp is parked at a block barrier,
//   - "region-boundary" instants at dynamic region crossings,
//   - "dispatch" instants when a warp slot starts a new thread block.
//
// Timestamps are simulated cycles written as microseconds (1 cycle =
// 1 us), which keeps Perfetto's zoom/selection arithmetic exact.
//
// Wait spans are derived by polling warp state from OnCycle; that is
// exact rather than sampled because suspension and barrier transitions
// only ever happen on stepped cycles (issues, or resilience-hook pops
// which themselves bound fast-forward jumps). Attach the writer *after*
// the scheme's hooks in CombineHooks order so same-cycle pops are
// observed at their own cycle.
//
// Only the first launch of a device is recorded: the simulator clock
// restarts per launch, and overlapping timelines render as garbage.
type TraceWriter struct {
	// Truncated counts issue events dropped by the DefaultMaxEvents cap;
	// wait spans and metadata are always kept so the timeline stays
	// interpretable.
	Truncated int64

	events   []traceEvent
	state    []warpState // indexed sm*maxWarps + slot
	maxWarps int
	launch   int
	lastCyc  int64
	endCyc   int64
	meta     bool
}

// DefaultMaxEvents caps the event list at roughly what the Perfetto UI
// loads comfortably; issue events beyond it are dropped.
const DefaultMaxEvents = 1 << 20

type warpState struct {
	inRBQ, inBar bool
	block        int
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  *int64         `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// NewTraceWriter returns a whole-run trace writer.
func NewTraceWriter() *TraceWriter { return &TraceWriter{} }

// Hooks returns the hook set that records the trace. The OnAdvance
// bound grants every skip: nothing the writer records can change inside
// a fully-stalled span (no issues, and wait transitions only happen on
// stepped cycles).
func (t *TraceWriter) Hooks() *gpu.Hooks {
	return &gpu.Hooks{
		OnExecuted:     t.onExecuted,
		OnCycle:        t.onCycle,
		OnWarpDispatch: t.onDispatch,
		OnAdvance:      func(d *gpu.Device, from, to int64) int64 { return to },
	}
}

func (t *TraceWriter) ensure(d *gpu.Device) []warpState {
	if t.state == nil {
		t.maxWarps = d.Cfg.MaxWarpsPerSM
		t.state = make([]warpState, d.Cfg.NumSMs*t.maxWarps)
	}
	if !t.meta {
		t.meta = true
		for smID := 0; smID < d.Cfg.NumSMs; smID++ {
			t.events = append(t.events, traceEvent{
				Name: "process_name", Ph: "M", PID: smID,
				Args: map[string]any{"name": fmt.Sprintf("SM%d", smID)},
			})
			for w := 0; w < t.maxWarps; w++ {
				t.events = append(t.events, traceEvent{
					Name: "thread_name", Ph: "M", PID: smID, TID: w,
					Args: map[string]any{"name": fmt.Sprintf("warp%d", w)},
				})
			}
		}
	}
	return t.state
}

func (t *TraceWriter) onDispatch(d *gpu.Device, sm *gpu.SM, w *gpu.Warp) {
	if t.launch > 0 {
		return
	}
	st := t.ensure(d)
	st[sm.ID*t.maxWarps+w.ID].block = w.GlobalBlock
	t.events = append(t.events, traceEvent{
		Name: "dispatch", Ph: "i", TS: d.Cyc, PID: sm.ID, TID: w.ID, S: "t",
		Args: map[string]any{"block": w.GlobalBlock},
	})
}

func (t *TraceWriter) onExecuted(d *gpu.Device, sm *gpu.SM, w *gpu.Warp, pc int) {
	if t.launch > 0 {
		return
	}
	t.ensure(d)
	in := &d.Kernel().Insts[pc]
	if in.Boundary {
		t.events = append(t.events, traceEvent{
			Name: "region-boundary", Ph: "i", TS: d.Cyc, PID: sm.ID, TID: w.ID, S: "t",
			Args: map[string]any{"pc": pc},
		})
	}
	if len(t.events) >= DefaultMaxEvents {
		t.Truncated++
		return
	}
	one := int64(1)
	t.events = append(t.events, traceEvent{
		Name: in.Op.String(), Ph: "X", TS: d.Cyc, Dur: &one, PID: sm.ID, TID: w.ID,
		Args: map[string]any{
			"pc": pc, "block": w.GlobalBlock,
			"mask": fmt.Sprintf("%08x", w.ActiveMask()),
		},
	})
}

func (t *TraceWriter) onCycle(d *gpu.Device) {
	if d.Cyc < t.lastCyc {
		t.launch++
	}
	t.lastCyc = d.Cyc
	if t.launch > 0 {
		return
	}
	st := t.ensure(d)
	if d.Cyc > t.endCyc {
		t.endCyc = d.Cyc
	}
	for _, sm := range d.SMs {
		base := sm.ID * t.maxWarps
		for wi, w := range sm.Warps {
			s := &st[base+wi]
			rbq := w != nil && !w.Finished && w.Suspended()
			bar := w != nil && !w.Finished && w.AtBarrier()
			if rbq != s.inRBQ {
				s.inRBQ = rbq
				t.span(rbq, "rbq-wait", d.Cyc, sm.ID, wi)
			}
			if bar != s.inBar {
				s.inBar = bar
				t.span(bar, "barrier-wait", d.Cyc, sm.ID, wi)
			}
		}
	}
}

func (t *TraceWriter) span(begin bool, name string, cyc int64, sm, warp int) {
	ph := "E"
	if begin {
		ph = "B"
	}
	t.events = append(t.events, traceEvent{Name: name, Ph: ph, TS: cyc, PID: sm, TID: warp})
}

// Events returns the number of recorded trace events.
func (t *TraceWriter) Events() int { return len(t.events) }

// Write finalizes the trace (closing any wait span still open at the
// last observed cycle) and writes the JSON document.
func (t *TraceWriter) Write(w io.Writer) error {
	end := t.endCyc + 1
	for i := range t.state {
		s := &t.state[i]
		smID, wi := i/t.maxWarps, i%t.maxWarps
		if s.inRBQ {
			s.inRBQ = false
			t.span(false, "rbq-wait", end, smID, wi)
		}
		if s.inBar {
			s.inBar = false
			t.span(false, "barrier-wait", end, smID, wi)
		}
	}
	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{t.events, "ms"}
	if doc.TraceEvents == nil {
		doc.TraceEvents = []traceEvent{}
	}
	return json.NewEncoder(w).Encode(doc)
}
