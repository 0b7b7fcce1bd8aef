// Command flamecc is the Flame compiler driver: it assembles a kernel
// (from a file or a named benchmark), runs a resilience scheme's compiler
// pipeline, and dumps the region-annotated program plus compilation
// statistics.
//
// Usage:
//
//	flamecc -bench LUD -scheme flame
//	flamecc -in kernel.fasm -scheme dup-renaming -wcdl 30 -dump
//	flamecc -bench Triad -scheme renaming -avf     # static AVF prediction
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"flame/internal/bench"
	"flame/internal/core"
	"flame/internal/flame"
	"flame/internal/gpu"
	"flame/internal/isa"
	"flame/internal/regions"
	"flame/internal/vet"
)

func main() {
	in := flag.String("in", "", "kernel assembly file")
	benchName := flag.String("bench", "", "use a named benchmark kernel instead of -in")
	schemeNames := strings.Join(core.SchemeFlagNames(), ", ")
	schemeFlag := flag.String("scheme", "flame", "resilience scheme: "+schemeNames)
	wcdl := flag.Int("wcdl", 20, "sensor worst-case detection latency (cycles)")
	extend := flag.Bool("extend", true, "enable the Section III-E region extension (sensor schemes)")
	dump := flag.Bool("dump", true, "dump the compiled program")
	verify := flag.Bool("verify", true, "check idempotence invariants of the result")
	runVet := flag.Bool("vet", false, "run the full flamevet static analysis on the result (exit 1 on errors)")
	avfRep := flag.Bool("avf", false, "print the static AVF vulnerability prediction (needs -bench: runs the fault-free golden)")
	archName := flag.String("arch", "GTX480", "GPU architecture for -avf: GTX480, TITANX, GV100, RTX2060")
	modelFlag := flag.String("model", "data", "fault model for -avf: data or full")
	flag.Parse()

	scheme, err := core.SchemeByName(*schemeFlag)
	if err != nil {
		fail("unknown scheme %q; choose one of %s", *schemeFlag, schemeNames)
	}

	var prog *isa.Program
	var bm *bench.Benchmark
	switch {
	case *benchName != "":
		b, err := bench.ByName(*benchName)
		if err != nil {
			fail("%v (known: %s)", err, benchNames())
		}
		bm = b
		prog = b.Prog()
	case *in != "":
		src, err := os.ReadFile(*in)
		if err != nil {
			fail("%v", err)
		}
		p, err := isa.Parse(*in, string(src))
		if err != nil {
			fail("%v", err)
		}
		prog = p
	default:
		fail("need -in FILE or -bench NAME")
	}

	comp, err := core.Compile(prog, core.Options{Scheme: scheme, WCDL: *wcdl, ExtendRegions: *extend})
	if err != nil {
		fail("%v", err)
	}

	fmt.Printf("scheme: %s (WCDL=%d)\n", scheme, *wcdl)
	fmt.Printf("instructions: %d -> %d, registers: %d -> %d\n",
		prog.Len(), comp.Prog.Len(), prog.NumRegs, comp.Prog.NumRegs)
	fmt.Printf("static regions: %d (boundaries: %d)\n",
		len(regions.RegionStarts(comp.Prog)), comp.Prog.BoundaryCount())
	if comp.Form != nil {
		fmt.Printf("sections: %d (elided barriers: %d)\n", len(comp.Sections), comp.Form.ElidedBarriers)
	}
	if scheme.UsesRenaming() {
		fmt.Printf("renaming: %+v\n", comp.RenameStat)
	}
	if comp.CkptStat != nil {
		fmt.Printf("checkpointing: %d stores, %d slots\n", comp.CkptStat.Stores, len(comp.CkptStat.Slots))
	}
	if comp.DupStat.Replicas > 0 {
		fmt.Printf("duplication: %d replicas of %d eligible\n", comp.DupStat.Replicas, comp.DupStat.Eligible)
	}
	if *verify && scheme != core.Baseline {
		allowRegWAR := !scheme.UsesRenaming() // checkpointing circumvents reg WARs
		if err := regions.VerifyIdempotence(comp.Prog, comp.Sections, allowRegWAR); err != nil {
			fail("idempotence verification failed: %v", err)
		}
		fmt.Println("idempotence: verified")
	}
	sizes := regions.StaticRegionSizes(comp.Prog)
	total := 0
	for _, s := range sizes {
		total += s
	}
	fmt.Printf("mean static region size: %.1f instructions\n", float64(total)/float64(len(sizes)))
	if *dump {
		fmt.Println()
		fmt.Print(comp.Prog.String())
	}
	if *runVet {
		rep := vet.Compiled(comp, vet.Config{WCDL: *wcdl})
		fmt.Println()
		rep.WriteText(os.Stdout, vet.Info)
		if rep.Errors() > 0 {
			os.Exit(1)
		}
	}
	if *avfRep {
		if bm == nil {
			fail("-avf needs -bench NAME (the prediction runs the benchmark's fault-free golden)")
		}
		arch, err := gpu.ConfigByName(*archName)
		if err != nil {
			fail("%v", err)
		}
		model, err := flame.ParseFaultModel(*modelFlag)
		if err != nil {
			fail("%v", err)
		}
		p, err := vet.Predict(arch, bm.Spec(), core.Options{Scheme: scheme, WCDL: *wcdl, ExtendRegions: *extend}, model)
		if err != nil {
			fail("%v", err)
		}
		fmt.Println()
		fmt.Print(p.String())
	}
}

func benchNames() string {
	var names []string
	for _, b := range bench.All() {
		names = append(names, b.Name)
	}
	return strings.Join(names, ", ")
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "flamecc: "+format+"\n", args...)
	os.Exit(1)
}
