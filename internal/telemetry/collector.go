// Package telemetry is the simulator's observability layer: scheduler-
// slot stall attribution (Collector), interval time-series sampling
// (Sampler), Perfetto/Chrome trace export (TraceWriter), the
// per-trial strike propagation tracer (Tracer) and the gpu.Stats field
// list. Everything here is strictly opt-in — a run with no telemetry
// attached pays nothing.
package telemetry

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"flame/internal/gpu"
)

// Collector accumulates scheduler-slot attribution per SM and per warp
// slot. It implements gpu.SlotSink; attach it with Hooks() (or set
// gpu.Hooks.Slots directly). Credits are cumulative across every launch
// run while attached; call Reset between launches to separate them.
//
// Warp rows are keyed by the SM-local warp *slot* index, which the
// simulator reuses as blocks retire and new ones dispatch — a row
// aggregates every warp that occupied the slot, which is the natural
// unit for occupancy analysis (track k of the SM's issue capacity).
type Collector struct {
	nsched int
	// perSM[sm][reason] and perWarp[sm][slot][reason] hold slot counts.
	perSM   [][gpu.NumSlotReasons]int64
	perWarp [][][gpu.NumSlotReasons]int64
}

// NewCollector sizes a collector for the architecture.
func NewCollector(cfg *gpu.Config) *Collector {
	c := &Collector{
		nsched:  cfg.SchedulersPerSM,
		perSM:   make([][gpu.NumSlotReasons]int64, cfg.NumSMs),
		perWarp: make([][][gpu.NumSlotReasons]int64, cfg.NumSMs),
	}
	for i := range c.perWarp {
		c.perWarp[i] = make([][gpu.NumSlotReasons]int64, cfg.MaxWarpsPerSM)
	}
	return c
}

// Hooks returns a hook set that attaches the collector. Combine it with
// a scheme's hooks via gpu.CombineHooks.
func (c *Collector) Hooks() *gpu.Hooks { return &gpu.Hooks{Slots: c} }

// CreditSlot implements gpu.SlotSink.
func (c *Collector) CreditSlot(smID, sched, warp int, r gpu.SlotReason, cycle int64) {
	c.perSM[smID][r]++
	if warp >= 0 {
		rows := c.perWarp[smID]
		if warp >= len(rows) {
			grown := make([][gpu.NumSlotReasons]int64, warp+1)
			copy(grown, rows)
			rows, c.perWarp[smID] = grown, grown
		}
		rows[warp][r]++
	}
}

// Reset zeroes every counter (e.g. between launches).
func (c *Collector) Reset() {
	for i := range c.perSM {
		c.perSM[i] = [gpu.NumSlotReasons]int64{}
	}
	for i := range c.perWarp {
		for j := range c.perWarp[i] {
			c.perWarp[i][j] = [gpu.NumSlotReasons]int64{}
		}
	}
}

// Totals returns device-wide slot counts by reason. Their sum equals
// Cycles × Σ_SM SchedulersPerSM for a single collected launch.
func (c *Collector) Totals() [gpu.NumSlotReasons]int64 {
	var t [gpu.NumSlotReasons]int64
	for i := range c.perSM {
		for r, n := range c.perSM[i] {
			t[r] += n
		}
	}
	return t
}

// SM returns one SM's slot counts by reason.
func (c *Collector) SM(smID int) [gpu.NumSlotReasons]int64 { return c.perSM[smID] }

// Warp returns one warp slot's credited counts by reason.
func (c *Collector) Warp(smID, slot int) [gpu.NumSlotReasons]int64 {
	if slot < len(c.perWarp[smID]) {
		return c.perWarp[smID][slot]
	}
	return [gpu.NumSlotReasons]int64{}
}

// TotalSlots returns the total credited scheduler slots.
func (c *Collector) TotalSlots() int64 {
	var sum int64
	for _, n := range c.Totals() {
		sum += n
	}
	return sum
}

// Table renders a device-wide share breakdown plus the top stalled SMs,
// human-readable.
func (c *Collector) Table() string {
	t := c.Totals()
	total := c.TotalSlots()
	if total == 0 {
		return "telemetry: no slots collected\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "scheduler-slot attribution (%d slots)\n", total)
	for r := gpu.SlotReason(0); r < gpu.NumSlotReasons; r++ {
		fmt.Fprintf(&b, "  %-10s %12d  %6.2f%%\n", r, t[r], 100*float64(t[r])/float64(total))
	}
	// Rank SMs by non-issued share to spotlight stragglers.
	type smRow struct {
		id             int
		issued, booked int64
	}
	rows := make([]smRow, len(c.perSM))
	for i := range c.perSM {
		rows[i].id = i
		for r, n := range c.perSM[i] {
			rows[i].booked += n
			if gpu.SlotReason(r) == gpu.SlotIssued {
				rows[i].issued = n
			}
		}
	}
	sort.Slice(rows, func(a, z int) bool { return rows[a].issued < rows[z].issued })
	n := len(rows)
	if n > 4 {
		n = 4
	}
	b.WriteString("  least-issuing SMs:")
	for _, r := range rows[:n] {
		share := 0.0
		if r.booked > 0 {
			share = 100 * float64(r.issued) / float64(r.booked)
		}
		fmt.Fprintf(&b, " SM%d=%.1f%%", r.id, share)
	}
	b.WriteString("\n")
	return b.String()
}

// slotHeader is the shared CSV header for reason columns.
func slotHeader() []string {
	h := make([]string, 0, gpu.NumSlotReasons)
	for r := gpu.SlotReason(0); r < gpu.NumSlotReasons; r++ {
		h = append(h, r.String())
	}
	return h
}

// WriteCSV emits the per-SM breakdown: sm,issued,...,drained.
func (c *Collector) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"sm"}, slotHeader()...)); err != nil {
		return err
	}
	rec := make([]string, 1+gpu.NumSlotReasons)
	for i := range c.perSM {
		rec[0] = strconv.Itoa(i)
		for r, n := range c.perSM[i] {
			rec[1+r] = strconv.FormatInt(n, 10)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteWarpCSV emits the per-warp-slot breakdown: sm,warp,issued,...
// Rows that never received a credit are skipped.
func (c *Collector) WriteWarpCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"sm", "warp"}, slotHeader()...)); err != nil {
		return err
	}
	rec := make([]string, 2+gpu.NumSlotReasons)
	for i := range c.perWarp {
		for j := range c.perWarp[i] {
			var any int64
			for _, n := range c.perWarp[i][j] {
				any |= n
			}
			if any == 0 {
				continue
			}
			rec[0] = strconv.Itoa(i)
			rec[1] = strconv.Itoa(j)
			for r, n := range c.perWarp[i][j] {
				rec[2+r] = strconv.FormatInt(n, 10)
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
