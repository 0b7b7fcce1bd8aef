// Command flamesim runs one benchmark under one resilience scheme on the
// cycle-level GPU simulator and prints execution statistics, optionally
// with a fault injection.
//
// Usage:
//
//	flamesim -bench Histogram -scheme flame
//	flamesim -bench SGEMM -scheme flame -arch GV100 -inject -seed 7
//	flamesim -bench SGEMM -inject -fingerprint -seed 7
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
	"flame/internal/flame"
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
	inject := flag.Bool("inject", false, "inject one soft error and recover")
	seed := flag.Int64("seed", 1, "injection seed")
	arm := flag.Int64("arm", 100, "injection arm cycle")
	fingerprint := flag.Bool("fingerprint", false, "with -inject: trace the strike's propagation (cycles to the first corrupted global store, detection latency, divergence fingerprint)")
	baseline := flag.Bool("baseline", true, "also run the baseline for comparison")
	trace := flag.String("trace", "", "trace window \"FROM:TO\" (cycles) to stderr")
	noskip := flag.Bool("noskip", false, "disable event-driven cycle skipping (naive per-cycle loop)")
	telem := flag.Bool("telemetry", false, "print per-SM stall-attribution breakdown")
	telemOut := flag.String("telemetry-out", "", "write per-SM stall-attribution CSV to this file")
	traceOut := flag.String("trace-out", "", "write a Perfetto trace_event JSON timeline to this file")
	interval := flag.Int64("interval", 0, "sample cumulative counters every N cycles")
	intervalOut := flag.String("interval-out", "", "write the interval series to this file (.json for JSON, else CSV; default stdout)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

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
	var inj *flame.Injector
	if *inject {
		if !scheme.Detects() {
			fail("scheme %s has no detection; cannot inject", scheme)
		}
		delay := *wcdl
		if !scheme.UsesSensors() {
			delay = 0
		}
		inj = flame.NewInjector(*arm, delay, *seed)
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

	// Propagation tracing rides the same opt-in observer hooks: a golden
	// run supplies the reference memory, and the tracer follows the
	// strike's taint through the register dataflow to the first global
	// store it could have corrupted.
	var tracer *telemetry.Tracer
	var golden *core.Golden
	if *fingerprint {
		if inj == nil {
			fail("-fingerprint needs -inject")
		}
		if golden, err = core.GoldenRun(arch, spec, opt); err != nil {
			fail("golden: %v", err)
		}
		tracer = telemetry.NewTracer()
		tracer.BeginTrial(golden, inj)
		hooks = gpu.CombineHooks(hooks, tracer.TrialHooks())
	}

	res, err := core.RunCompiledOpts(arch, spec, comp, inj, core.RunOpts{Hooks: hooks, KeepMem: tracer != nil})
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
	if inj != nil {
		if inj.Injected {
			fmt.Printf("injection: %s\n", inj.Description)
			fmt.Printf("detected after %d cycles; recovered, output validated\n",
				inj.DetectedAt-inj.InjectedAt)
		} else {
			fmt.Println("injection: no eligible instruction was corrupted")
		}
	}
	if tracer != nil {
		printPropagation(tracer, inj, res, golden)
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

// printPropagation closes out the tracer's trial and renders the
// propagation record: how far the strike travelled before it could
// touch memory, when detection caught it, and — if the output actually
// diverged — the corruption fingerprint campaigns group SDCs by.
func printPropagation(tracer *telemetry.Tracer, inj *flame.Injector, res *core.Result, golden *core.Golden) {
	tr := core.TrialResult{Outcome: core.OutcomeMasked, Strikes: inj.FiredStrikes()}
	if memDiverged(res.Mem, golden.Mem) {
		tr.Outcome = core.OutcomeSDC
	} else if inj.Detected {
		tr.Outcome = core.OutcomeRecovered
	}
	tracer.EndTrial(&tr, res.Mem, golden)
	p := tr.Prop
	if p == nil {
		fmt.Println("propagation: no strike fired; nothing to trace")
		return
	}
	if p.Depth >= 0 {
		fmt.Printf("propagation: first corrupted global store %d cycles after the strike (cycle %d)\n",
			p.Depth, p.StoreCycle)
	} else {
		fmt.Printf("propagation: taint never reached a global store (%d tainted instructions)\n",
			p.TaintedInsts)
	}
	if p.DetectLatency >= 0 {
		fmt.Printf("propagation: detected %d cycles after the strike\n", p.DetectLatency)
	}
	if p.Fingerprint != "" {
		fmt.Printf("propagation: SDC fingerprint %s (%d words / %d pages diverged)\n",
			p.Fingerprint, p.DivergedWords, p.DivergedPages)
	}
}

func memDiverged(mem, golden []uint32) bool {
	if len(mem) != len(golden) {
		return true
	}
	for i := range mem {
		if mem[i] != golden[i] {
			return true
		}
	}
	return false
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
