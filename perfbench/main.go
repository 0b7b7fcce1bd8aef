// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed time, checks the outputs against pinned values
// (or, at seeds without a pin, against the same invariants), prints a
// human-readable metric table, and ends its standard output with one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1
// they are the per-layer metrics of a traced run, whose spans are also
// written as Chrome/Perfetto trace_event JSON under -out.
//
// Build and run it from the repository root through the wrapper, which
// keeps the Go build cache inside the checkout:
//
//	python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0
//
// The exit status is 0 when every check passed, 1 otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"flame/internal/stats"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits are the metrics an untraced run reports, on every
// workload. fail_frac is printed in the table only: it is failed /
// attempted of the result line, and a metric that is normally 0 has no
// relative bound.
var endToEndUnits = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"trials_per_s", "1/s"},
	{"simcycles_per_s", "cycles/s"},
	{"peak_mem_mb", "MB"},
}

// perLayerUnits are the metrics a traced run reports. Every workload
// reports all of them; a metric of a layer the workload does not run
// reads 0 (README.md maps each metric to its workloads).
var perLayerUnits = []struct{ name, unit string }{
	{"harness.cells", "count"},
	{"core.compile_s", "s"},
	{"gpu.sim_s", "s"},
	{"gpu.sim_cycles", "cycles"},
	{"gpu.ns_per_simcycle", "ns"},
	{"core.golden_s", "s"},
	{"core.prune_index_s", "s"},
	{"core.strata_s", "s"},
	{"core.trial_ms_p50", "ms"},
	{"core.trial_ms_p99", "ms"},
	{"core.trial_samples", "count"},
	{"core.cycles_per_trial", "cycles"},
	{"core.ns_per_trial_cycle", "ns"},
	{"core.prefix_frac", "fraction"},
	{"core.restored_pages_per_trial", "pages"},
	{"core.diff_pages_per_trial", "pages"},
	{"core.alloc_kb_per_trial", "KB"},
	{"core.pruned_frac", "fraction"},
	{"core.prune_us_per_trial", "us"},
	{"campaign.idle_frac", "fraction"},
	{"campaign.rounds", "count"},
	{"campaign.tail_s", "s"},
	{"dist.worker_setup_s", "s"},
	{"dist.idle_frac", "fraction"},
	{"dist.leases", "count"},
	{"dist.leases_lost", "count"},
	{"dist.tail_s", "s"},
	{"trace.overhead_frac", "fraction"},
	{"trace.span_coverage", "fraction"},
}

// options configure one benchmark run.
type options struct {
	workload string
	seed     uint64
	budget   time.Duration // measured time of an untraced run
	traced   bool
	scale    scale
	pins     *pins  // nil: check invariants only
	outDir   string // trace files and fleet state
	log      io.Writer
}

// outcome is what a workload run produced.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	problems          []string // failed correctness checks
	reps              []rep    // untraced repetitions
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// rep is one untraced repetition of a workload.
type rep struct {
	wall, setup time.Duration
	ops, failed int     // classified trials or grid cells, and failures among them
	simCycles   int64   // cycles simulated (pruned trials simulate none)
	peakMB      float64 // largest resident set sampled during the repetition
	speed       float64 // host speed factor around the repetition (calib.go)
}

// measure is the untraced repetition loop: it repeats f until the next
// repetition would end past the budget (at least once). The reference
// kernel (calib.go) runs before the first repetition and after each
// one; a repetition's speed factor is that of the mean of the two
// kernel times around it. Before each kernel run the garbage is
// collected and freed memory returned to the OS, so that no collection
// runs beside the kernel and each repetition's resident-memory peak is
// its own.
func measure(budget time.Duration, f func() (rep, error)) ([]rep, error) {
	start := time.Now()
	var reps []rep
	calibrate() // warm-up: faults in the kernel's map
	debug.FreeOSMemory()
	before := calibrate()
	for {
		stop := sampleRSS()
		r, err := f()
		r.peakMB = stop()
		if err != nil {
			return reps, err
		}
		debug.FreeOSMemory()
		after := calibrate()
		r.speed = speedFactor((before + after) / 2)
		before = after
		reps = append(reps, r)
		el := time.Since(start)
		if el+el/time.Duration(len(reps)) > budget {
			return reps, nil
		}
	}
}

// endToEnd reduces repetitions to the end-to-end metrics: each is the
// median over repetitions of the repetition's value scaled to nominal
// host speed. extraSetups are additional set-up samples, already
// scaled, taken outside the repetitions.
func endToEnd(reps []rep, extraSetups []float64) map[string]float64 {
	var wall, setup, tps, cps, mem []float64
	for _, r := range reps {
		mem = append(mem, r.peakMB)
		work := (r.wall - r.setup).Seconds() * r.speed
		wall = append(wall, r.wall.Seconds()*r.speed)
		setup = append(setup, r.setup.Seconds()*r.speed)
		tps = append(tps, float64(r.ops)/work)
		cps = append(cps, float64(r.simCycles)/work)
	}
	setup = append(setup, extraSetups...)
	return map[string]float64{
		"wall_s":          median(wall),
		"setup_s":         median(setup),
		"trials_per_s":    median(tps),
		"simcycles_per_s": median(cps),
		"peak_mem_mb":     median(mem),
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolation quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// sampleRSS samples the process's resident set every 5 ms until the
// returned stop function is called, which returns the largest sample in
// MB (0 where /proc is unavailable).
func sampleRSS() (stop func() float64) {
	done := make(chan struct{})
	peak := make(chan float64)
	go func() {
		max := residentMB()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				peak <- math.Max(max, residentMB())
				return
			case <-t.C:
				max = math.Max(max, residentMB())
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-peak
	}
}

// residentMB is the process's current resident set in MB.
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// workloads maps workload names to the functions that run them.
var workloads = map[string]func(*options) (*outcome, error){
	"grid":     runGrid,
	"campaign": runCampaignWorkload,
	"sampled":  runSampledWorkload,
	"fleet":    runFleet,
}

// run executes one benchmark run and builds its result line.
func run(o *options) (*result, error) {
	drive, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want grid, campaign, sampled or fleet)", o.workload)
	}
	out, err := drive(o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	names := endToEndUnits
	if o.traced {
		names = perLayerUnits
	}
	res := &result{
		Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metric{},
	}
	tb := &stats.Table{Header: []string{"metric", "value", "unit"}}
	for _, n := range names {
		v, ok := out.metrics[n.name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s not produced", o.workload, n.name)
		}
		res.Metrics[n.name] = metric{Value: v, Unit: n.unit}
		tb.Add(n.name, strconv.FormatFloat(v, 'g', 6, 64), n.unit)
	}
	if !o.traced && out.attempted > 0 {
		tb.Add("fail_frac", strconv.FormatFloat(float64(out.failed)/float64(out.attempted), 'g', 6, 64), "fraction")
	}
	fmt.Fprintf(o.log, "workload %s seed %d trace %v: %d attempted, %d failed\n%s",
		o.workload, o.seed, o.traced, out.attempted, out.failed, tb)
	if len(out.reps) > 0 {
		fmt.Fprintf(o.log, "%d repetitions, unscaled wall_s:", len(out.reps))
		for _, r := range out.reps {
			fmt.Fprintf(o.log, " %.3f", r.wall.Seconds())
		}
		fmt.Fprintf(o.log, "\nhost speed factors:")
		for _, r := range out.reps {
			fmt.Fprintf(o.log, " %.3f", r.speed)
		}
		fmt.Fprintln(o.log)
	}
	for _, p := range out.problems {
		fmt.Fprintf(o.log, "CHECK FAILED: %s\n", p)
	}
	return res, nil
}

func main() {
	workload := flag.String("workload", "", "workload: grid, campaign, sampled or fleet")
	seed := flag.Uint64("seed", defaultPins.seed, "workload seed (campaign seed; grid has no randomness)")
	seconds := flag.Float64("seconds", 20, "measured time of an untraced run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for trace files and fleet state")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	o := &options{
		workload: *workload, seed: *seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, scale: fullScale, outDir: *out, log: os.Stdout,
	}
	if *seed == defaultPins.seed {
		o.pins = &defaultPins
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
