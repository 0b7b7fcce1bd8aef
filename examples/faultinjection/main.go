// Fault injection: strike a benchmark kernel with soft errors at random
// cycles and watch Flame detect (within the sensor WCDL) and recover
// (idempotent re-execution) every one of them: each strike is one
// campaign trial on a core.Engine, classified against the fault-free
// golden run's final memory.
package main

import (
	"fmt"
	"log"

	"flame"
	"flame/internal/bench"
	"flame/internal/core"
	flamehw "flame/internal/flame"
	"flame/internal/telemetry"
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
		set, err := core.Prepare(cfg, spec, core.FlameOptions(), core.Want{})
		if err != nil {
			log.Fatal(err)
		}
		g := set.Golden

		fmt.Printf("=== %s (%s) — regions: %d, sections: %d\n",
			b.Name, b.Description, g.Comp.Prog.BoundaryCount()+1, len(g.Comp.Sections))

		eng := core.NewEngine(cfg)
		tracer := telemetry.NewTracer() // reports the detection latency
		for seed := int64(1); seed <= 3; seed++ {
			tr := eng.RunTrial(spec, g, core.TrialSpec{
				Arms: []int64{50 + seed*37}, Model: flamehw.DataSlice, Seed: seed,
				MaxCycles: g.HangBudget(0), Observer: tracer,
			})
			switch tr.Outcome {
			case core.OutcomeNoInjection:
				fmt.Printf("  seed %d: no eligible target hit\n", seed)
				continue
			case core.OutcomeMasked, core.OutcomeRecovered:
			default:
				log.Fatalf("%s seed %d: %s: %s %s", name, seed, tr.Outcome, tr.Description, tr.Err)
			}
			fmt.Printf("  seed %d: %s\n", seed, tr.Description)
			fmt.Printf("          %s: detected %d cycles later, %d recoveries; output matches the fault-free run\n",
				tr.Outcome, tr.Prop.DetectLatency, tr.Recoveries)
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
