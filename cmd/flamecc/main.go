// Command flamecc is the Flame compiler driver: it assembles a kernel
// (from a file or a named benchmark), runs a resilience scheme's compiler
// pipeline, and dumps the region-annotated program plus compilation
// statistics. The static checks and the AVF prediction live in
// flamevet (flamevet -bench B -scheme S; flamevet -avf -avf-trials 0).
//
// Usage:
//
//	flamecc -bench LUD -scheme flame
//	flamecc -in kernel.fasm -scheme dup-renaming -wcdl 30 -dump
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"flame/internal/bench"
	"flame/internal/core"
	"flame/internal/isa"
	"flame/internal/regions"
)

func main() {
	in := flag.String("in", "", "kernel assembly file")
	benchName := flag.String("bench", "", "use a named benchmark kernel instead of -in")
	schemeNames := strings.Join(core.SchemeFlagNames(), ", ")
	schemeFlag := flag.String("scheme", "flame", "resilience scheme: "+schemeNames)
	wcdl := flag.Int("wcdl", 20, "sensor worst-case detection latency (cycles)")
	extend := flag.Bool("extend", true, "enable the Section III-E region extension (sensor schemes)")
	dump := flag.Bool("dump", true, "dump the compiled program")
	flag.Parse()

	scheme, err := core.SchemeByName(*schemeFlag)
	if err != nil {
		fail("unknown scheme %q; choose one of %s", *schemeFlag, schemeNames)
	}

	var prog *isa.Program
	switch {
	case *benchName != "":
		b, err := bench.ByName(*benchName)
		if err != nil {
			fail("%v (known: %s)", err, benchNames())
		}
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
