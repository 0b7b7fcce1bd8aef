package telemetry

import (
	"fmt"
	"reflect"

	"flame/internal/gpu"
)

// The gpu.Stats field list, built by reflection, so a counter added to
// the struct shows up in the interval sampler's CSV automatically — it
// cannot be silently dropped. TestStatsRoundTrip enforces that the
// field list always matches the struct.

// statsFields caches the exported int64 counter names of gpu.Stats in
// declaration order, computed once at init.
var statsFields = func() []string {
	t := reflect.TypeOf(gpu.Stats{})
	names := make([]string, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() || f.Type.Kind() != reflect.Int64 {
			panic(fmt.Sprintf("telemetry: gpu.Stats field %s is not an exported int64; extend the exporter", f.Name))
		}
		names = append(names, f.Name)
	}
	return names
}()

// StatsFields returns the names of every gpu.Stats counter in struct
// declaration order. The returned slice is shared: do not mutate.
func StatsFields() []string { return statsFields }

// StatsValues returns s's counters in StatsFields order.
func StatsValues(s *gpu.Stats) []int64 {
	v := reflect.ValueOf(s).Elem()
	out := make([]int64, v.NumField())
	for i := range out {
		out[i] = v.Field(i).Int()
	}
	return out
}
