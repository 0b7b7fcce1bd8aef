package telemetry

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"flame/internal/gpu"
)

// Sample is one interval snapshot: the cumulative device counters as of
// the end of cycle Cycle of launch Launch, plus (when a Collector is
// attached) the cumulative slot-attribution totals.
type Sample struct {
	Launch int       `json:"launch"`
	Cycle  int64     `json:"cycle"`
	Stats  gpu.Stats `json:"stats"`
	// Slots holds the collector's cumulative device-wide totals in
	// SlotReason order; all-zero when no collector is attached.
	Slots [gpu.NumSlotReasons]int64 `json:"slots"`
}

// Sampler snapshots cumulative counters every Every cycles into an
// in-memory time series. Its OnAdvance bound makes it skip-safe: a
// fast-forward jump never crosses a sample boundary, so the series is
// identical with and without event-driven cycle skipping (interval
// deltas are exact, not interpolated).
type Sampler struct {
	// Every is the sampling period in cycles (required, > 0).
	Every int64
	// Collector, when set, adds cumulative slot totals to each sample.
	Collector *Collector
	// Samples is the collected series, in time order across launches.
	Samples []Sample

	launch  int
	lastCyc int64
}

// NewSampler returns a sampler with the given period.
func NewSampler(every int64) *Sampler { return &Sampler{Every: every} }

// Hooks returns the hook set that drives the sampler.
func (s *Sampler) Hooks() *gpu.Hooks {
	return &gpu.Hooks{OnCycle: s.onCycle, OnAdvance: s.onAdvance}
}

func (s *Sampler) onCycle(d *gpu.Device) {
	if d.Cyc < s.lastCyc {
		s.launch++ // the device restarted its clock: a new launch
	}
	s.lastCyc = d.Cyc
	if s.Every <= 0 || d.Cyc%s.Every != 0 || d.Cyc == 0 {
		return
	}
	smp := Sample{Launch: s.launch, Cycle: d.Cyc, Stats: d.Stats}
	if s.Collector != nil {
		smp.Slots = s.Collector.Totals()
	}
	s.Samples = append(s.Samples, smp)
}

// onAdvance stops fast-forward jumps at the next sample boundary; a
// boundary cycle itself is vetoed so it steps naively and OnCycle runs
// there exactly as in a run without cycle skipping.
func (s *Sampler) onAdvance(d *gpu.Device, from, to int64) int64 {
	if s.Every <= 0 {
		return to
	}
	if from%s.Every == 0 {
		return from
	}
	if b := from + s.Every - from%s.Every; b < to {
		return b
	}
	return to
}

// WriteCSV emits the series: launch,cycle,<stats fields...>,<slot reasons...>.
func (s *Sampler) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"launch", "cycle"}, StatsFields()...)
	header = append(header, slotHeader()...)
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(header))
	for i := range s.Samples {
		smp := &s.Samples[i]
		rec[0] = strconv.Itoa(smp.Launch)
		rec[1] = strconv.FormatInt(smp.Cycle, 10)
		k := 2
		for _, x := range StatsValues(&smp.Stats) {
			rec[k] = strconv.FormatInt(x, 10)
			k++
		}
		for _, x := range smp.Slots {
			rec[k] = strconv.FormatInt(x, 10)
			k++
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON emits the series as a JSON array of samples.
func (s *Sampler) WriteJSON(w io.Writer) error {
	e := json.NewEncoder(w)
	e.SetIndent("", "  ")
	return e.Encode(s.Samples)
}

// Export writes CSV or JSON depending on the path suffix convention
// used by the CLIs (".json" → JSON, anything else → CSV).
func (s *Sampler) Export(w io.Writer, jsonFormat bool) error {
	if jsonFormat {
		return s.WriteJSON(w)
	}
	return s.WriteCSV(w)
}

// Summary returns a one-line description of the collected series.
func (s *Sampler) Summary() string {
	return fmt.Sprintf("telemetry: %d interval samples (every %d cycles)", len(s.Samples), s.Every)
}
