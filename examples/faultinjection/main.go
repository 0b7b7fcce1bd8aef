// Fault injection: strike a benchmark kernel with soft errors at random
// cycles and watch Flame detect (within the sensor WCDL) and recover
// (idempotent re-execution) every one of them, validating the final
// output each time.
package main

import (
	"fmt"
	"log"

	"flame"
	"flame/internal/bench"
	"flame/internal/core"
	flamehw "flame/internal/flame"
)

func main() {
	cfg := flame.GTX480()
	cfg.NumSMs = 4 // small device: faster, denser interleavings

	for _, name := range []string{"Histogram", "SGEMM", "WT", "LUD"} {
		b, err := bench.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		spec := b.Spec()
		comp, err := core.Compile(spec.Prog, core.FlameOptions())
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("=== %s (%s) — regions: %d, sections: %d\n",
			b.Name, b.Description, comp.Prog.BoundaryCount()+1, len(comp.Sections))

		for seed := int64(1); seed <= 3; seed++ {
			inj := flamehw.NewInjector(50+seed*37, 20, seed)
			res, err := core.RunCompiled(cfg, spec, comp, inj)
			if err != nil {
				log.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if !inj.Injected {
				fmt.Printf("  seed %d: no eligible target hit\n", seed)
				continue
			}
			fmt.Printf("  seed %d: %s\n", seed, inj.Description)
			fmt.Printf("          detected %d cycles later; %d atomics undone, %d warps replayed; output correct\n",
				inj.DetectedAt-inj.InjectedAt, res.Flame.UndoneAtomics, res.Flame.Flushed)
		}

		// A full campaign: every injection must be masked or recovered.
		camp, err := flame.Campaign(cfg, spec, flame.FlameOptions(), 10, 99)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  campaign: %s\n\n", camp)
		if camp.SDC != 0 || camp.DUE != 0 || camp.Hang != 0 || camp.Internal != 0 {
			log.Fatalf("%s: unrecovered faults!", name)
		}
	}
	fmt.Println("all injected soft errors were detected and recovered")
}
