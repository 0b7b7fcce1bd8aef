// Command flamesim runs one benchmark under one resilience scheme on the
// cycle-level GPU simulator and prints execution statistics, optionally
// with telemetry. Injection trials run through flameinject: a campaign,
// or one trial re-run and explained with flameinject -explain BENCH:T.
//
// Usage:
//
//	flamesim -bench Histogram -scheme flame
//	flamesim -bench SGEMM -scheme flame -arch GV100 -sched LRR
//	flamesim -bench Triad -telemetry -trace-out trace.json -interval 1000
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"flame/internal/bench"
	"flame/internal/core"
	"flame/internal/gpu"
	"flame/internal/prof"
	"flame/internal/telemetry"
)

func main() {
	benchName := flag.String("bench", "Triad", "benchmark name")
	schemeFlag := flag.String("scheme", "flame", "resilience scheme (see flamecc -h)")
	archName := flag.String("arch", "GTX480", "GPU architecture: GTX480, TITANX, GV100, RTX2060")
	schedName := flag.String("sched", "", "override warp scheduler: GTO, LRR, OLD, 2-Level")
	wcdl := flag.Int("wcdl", 20, "sensor WCDL (cycles)")
	extend := flag.Bool("extend", true, "enable region extension")
	baseline := flag.Bool("baseline", true, "also run the baseline for comparison")
	trace := flag.String("trace", "", "trace window \"FROM:TO\" (cycles) to stderr")
	noskip := flag.Bool("noskip", false, "disable event-driven cycle skipping (naive per-cycle loop)")
	telem := flag.Bool("telemetry", false, "print per-SM stall-attribution breakdown")
	telemOut := flag.String("telemetry-out", "", "write per-SM stall-attribution CSV to this file")
	traceOut := flag.String("trace-out", "", "write a Perfetto trace_event JSON timeline to this file")
	interval := flag.Int64("interval", 0, "sample cumulative counters every N cycles")
	intervalOut := flag.String("interval-out", "", "with -interval: write the interval series to this file (.json for JSON, else CSV; default stdout)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	if *intervalOut != "" && *interval <= 0 {
		fail("-interval-out needs -interval")
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fail("%v", err)
	}
	defer stopProf()

	scheme, err := core.SchemeByName(*schemeFlag)
	if err != nil {
		fail("%v (want one of %s)", err, strings.Join(core.SchemeFlagNames(), ", "))
	}
	arch, err := gpu.ConfigByName(*archName)
	if err != nil {
		fail("%v", err)
	}
	arch.NoCycleSkip = *noskip
	if *schedName != "" {
		switch strings.ToUpper(*schedName) {
		case "GTO":
			arch.Scheduler = gpu.GTO
		case "LRR":
			arch.Scheduler = gpu.LRR
		case "OLD":
			arch.Scheduler = gpu.OLD
		case "2-LEVEL", "TWOLEVEL", "2LEVEL":
			arch.Scheduler = gpu.TwoLevel
		default:
			fail("unknown scheduler %q", *schedName)
		}
	}

	b, err := bench.ByName(*benchName)
	if err != nil {
		fail("%v", err)
	}
	spec := b.Spec()
	opt := core.Options{Scheme: scheme, WCDL: *wcdl, ExtendRegions: *extend}

	var baseCycles int64
	if *baseline {
		res, err := core.Run(arch, spec, core.Options{Scheme: core.Baseline})
		if err != nil {
			fail("baseline: %v", err)
		}
		baseCycles = res.Stats.Cycles
		fmt.Printf("baseline: %s\n", res.Stats.String())
	}

	comp, err := core.Compile(spec.Prog, opt)
	if err != nil {
		fail("%v", err)
	}
	// Observer hooks are strictly opt-in: with no telemetry flag the run
	// passes nil extra hooks and keeps the zero-overhead fast path.
	var hooks *gpu.Hooks
	var col *telemetry.Collector
	if *telem || *telemOut != "" {
		col = telemetry.NewCollector(&arch)
		hooks = gpu.CombineHooks(hooks, col.Hooks())
	}
	var tw *telemetry.TraceWriter
	if *traceOut != "" {
		tw = telemetry.NewTraceWriter()
		hooks = gpu.CombineHooks(hooks, tw.Hooks())
	}
	var smp *telemetry.Sampler
	if *interval > 0 {
		smp = telemetry.NewSampler(*interval)
		smp.Collector = col
		hooks = gpu.CombineHooks(hooks, smp.Hooks())
	}
	if *trace != "" {
		var from, to int64
		if _, err := fmt.Sscanf(*trace, "%d:%d", &from, &to); err != nil {
			fail("bad -trace window %q (want FROM:TO)", *trace)
		}
		tr := gpu.NewTracer(os.Stderr)
		tr.FromCycle, tr.ToCycle = from, to
		hooks = gpu.CombineHooks(hooks, tr.Hooks())
	}

	res, err := core.RunCompiledOpts(arch, spec, comp, nil, core.RunOpts{Hooks: hooks})
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("%s on %s (%s): %s\n", scheme, arch.Name, arch.Scheduler, res.Stats.String())
	if scheme != core.Baseline {
		fmt.Printf("flame hw: enq=%d pops=%d maxRBQ=%d recoveries=%d\n",
			res.Flame.Enqueues, res.Flame.Pops, res.Flame.MaxRBQ, res.Flame.Recoveries)
	}
	if baseCycles > 0 {
		fmt.Printf("normalized execution time: %.4f (%+.2f%%)\n",
			float64(res.Stats.Cycles)/float64(baseCycles),
			(float64(res.Stats.Cycles)/float64(baseCycles)-1)*100)
	}

	if col != nil && *telem {
		fmt.Print(col.Table())
	}
	if col != nil && *telemOut != "" {
		writeFileWith(*telemOut, col.WriteCSV)
		fmt.Printf("telemetry: stall-attribution CSV written to %s\n", *telemOut)
	}
	if tw != nil {
		writeFileWith(*traceOut, tw.Write)
		fmt.Printf("telemetry: %d trace events written to %s (open in ui.perfetto.dev)\n",
			tw.Events(), *traceOut)
		if tw.Truncated > 0 {
			fmt.Printf("telemetry: %d issue events dropped by the event cap\n", tw.Truncated)
		}
	}
	if smp != nil {
		if *intervalOut != "" {
			writeFileWith(*intervalOut, func(w io.Writer) error {
				return smp.Export(w, strings.HasSuffix(*intervalOut, ".json"))
			})
		} else if err := smp.WriteCSV(os.Stdout); err != nil {
			fail("%v", err)
		}
		fmt.Println(smp.Summary())
	}
}

// writeFileWith creates path and streams through the writer function.
func writeFileWith(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fail("%v", err)
	}
	if err := write(f); err != nil {
		f.Close()
		fail("%s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		fail("%s: %v", path, err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "flamesim: "+format+"\n", args...)
	os.Exit(1)
}
