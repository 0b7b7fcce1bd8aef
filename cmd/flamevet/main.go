// Command flamevet is the whole-program static verifier for Flame
// compilations. It runs the ISA well-formedness pass, the Flame
// invariant pass (sync isolation, idempotence anti-dependences,
// checkpoint completeness, WCDL budgets), and — optionally — the dynamic
// re-execution oracle that commits and replays every region of a real
// launch, cross-checking the static verdict.
//
// Usage:
//
//	flamevet -bench all -scheme all -oracle        # the CI gate
//	flamevet -bench LUD,SGEMM -scheme flame -json findings.json
//	flamevet -in kernel.fasm -scheme dup-checkpointing
//	flamevet -list                                 # the check registry
//
// With -avf it instead runs the AVF cross-validation gate: the static
// vulnerability engine (vet.Predict) predicts per-benchmark×scheme
// masked/recovered fractions, a real injection campaign measures them,
// and every prediction must be consistent with the measured Wilson 95%
// CI (point containment for sharp pairs, ACE-band overlap for all):
//
//	flamevet -avf -bench Triad,Histogram,SRAD,GUPS -scheme renaming,flame \
//	         -avf-trials 200 -json avf-report.json
//
// Exit status: 0 when no finding reaches the -fail-on severity (default
// error), 1 when one does, 2 on usage or harness errors.
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
	"flame/internal/vet"
)

func main() {
	os.Exit(run())
}

func run() int {
	in := flag.String("in", "", "verify a kernel assembly file")
	benchFlag := flag.String("bench", "", "comma-separated benchmark names, or \"all\"")
	schemeFlag := flag.String("scheme", "all", "comma-separated schemes, or \"all\": "+strings.Join(core.SchemeFlagNames(), ", "))
	wcdl := flag.Int("wcdl", 20, "sensor worst-case detection latency budget (instructions)")
	extend := flag.Bool("extend", true, "enable the Section III-E region extension (sensor schemes)")
	oracle := flag.Bool("oracle", false, "run the dynamic re-execution oracle (needs -bench: launches real inputs)")
	oracleSteps := flag.Int("oracle-steps", 0, "per-launch oracle step budget (0 = default)")
	checks := flag.String("checks", "", "run only these checks (comma-separated; see -list)")
	disable := flag.String("disable", "", "disable these checks (comma-separated)")
	jsonOut := flag.String("json", "", "also write the findings as JSON to this file (\"-\" for stdout)")
	failOn := flag.String("fail-on", "error", "lowest severity that fails the run: info, warning, error")
	quiet := flag.Bool("q", false, "suppress per-target progress lines")
	list := flag.Bool("list", false, "print the check registry and exit")
	avfGate := flag.Bool("avf", false, "run the AVF model-vs-campaign cross-validation gate (needs -bench)")
	avfTrials := flag.Int("avf-trials", 200, "injection trials per benchmark in the AVF gate campaign")
	avfSharp := flag.Float64("avf-sharp", 0, "residual threshold for the strict point check (0 = default 0.02)")
	archName := flag.String("arch", "GTX480", "GPU architecture for the AVF gate: GTX480, TITANX, GV100, RTX2060")
	modelFlag := flag.String("model", "data", "fault model for the AVF gate: data or full")
	parallel := flag.Int("parallel", 0, "AVF gate campaign workers (0 = GOMAXPROCS)")
	seed := flag.Uint64("seed", 42, "AVF gate campaign seed")
	flag.Parse()

	if *list {
		for _, c := range vet.Checks() {
			fmt.Printf("%-20s %s\n", c.Name, c.Doc)
		}
		return 0
	}

	failSev, err := vet.ParseSeverity(*failOn)
	if err != nil {
		return usage("%v", err)
	}
	cfg := vet.Config{WCDL: *wcdl, OracleSteps: *oracleSteps}
	if cfg.Enable, err = vet.ParseCheckList(*checks); err != nil {
		return usage("%v", err)
	}
	if cfg.Disable, err = vet.ParseCheckList(*disable); err != nil {
		return usage("%v", err)
	}

	schemes, err := parseSchemes(*schemeFlag)
	if err != nil {
		return usage("%v", err)
	}

	if *avfGate {
		return runAVF(*benchFlag, schemes, *wcdl, *extend, *archName, *modelFlag,
			*avfTrials, *avfSharp, *parallel, *seed, *jsonOut)
	}

	rep := vet.NewReport(cfg)
	targets := 0

	switch {
	case *in != "":
		src, err := os.ReadFile(*in)
		if err != nil {
			return usage("%v", err)
		}
		prog, err := isa.Parse(*in, string(src))
		if err != nil {
			// A parse failure is itself the finding for raw files.
			fmt.Fprintf(os.Stderr, "flamevet: %v\n", err)
			return 1
		}
		for _, s := range schemes {
			if verifyProgram(prog, s, *wcdl, *extend, cfg, rep, *quiet) != nil {
				targets++
			}
		}

	case *benchFlag != "":
		benches, err := parseBenches(*benchFlag)
		if err != nil {
			return usage("%v", err)
		}
		for _, b := range benches {
			for _, s := range schemes {
				spec := b.Spec()
				comp := verifyProgram(spec.Prog, s, *wcdl, *extend, cfg, rep, *quiet)
				if comp == nil {
					continue
				}
				if *oracle {
					st, err := vet.OracleSpec(spec, comp, cfg, rep)
					if err != nil {
						return usage("%v", err)
					}
					if !*quiet {
						fmt.Printf("oracle %s/%s: %d commits, %d replays, %d collective replays\n",
							spec.Name, s, st.Commits, st.Replays, st.Collectives)
					}
				}
				targets++
			}
		}

	default:
		return usage("need -in FILE or -bench NAME[,NAME...]|all")
	}

	rep.Sort()
	rep.WriteText(os.Stdout, vet.Info)
	fmt.Printf("flamevet: %d target(s) verified\n", targets)

	if *jsonOut != "" {
		w := os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				return usage("%v", err)
			}
			defer f.Close()
			w = f
		}
		if err := rep.WriteJSON(w); err != nil {
			return usage("%v", err)
		}
	}

	if max, any := rep.Max(); any && max >= failSev {
		return 1
	}
	return 0
}

// runAVF runs the AVF cross-validation gate over the benchmark×scheme
// matrix and returns the process exit status (0 pass, 1 fail, 2 usage).
func runAVF(benchFlag string, schemes []core.Scheme, wcdl int, extend bool,
	archName, modelName string, trials int, sharp float64, parallel int,
	seed uint64, jsonOut string) int {
	if benchFlag == "" {
		return usage("-avf needs -bench NAME[,NAME...]|all")
	}
	benches, err := parseBenches(benchFlag)
	if err != nil {
		return usage("%v", err)
	}
	arch, err := gpu.ConfigByName(archName)
	if err != nil {
		return usage("%v", err)
	}
	model, err := flame.ParseFaultModel(modelName)
	if err != nil {
		return usage("%v", err)
	}
	acfg := vet.AVFConfig{
		Arch:          arch,
		Model:         model,
		Trials:        trials,
		Parallel:      parallel,
		Seed:          seed,
		SharpResidual: sharp,
	}
	for _, b := range benches {
		acfg.Specs = append(acfg.Specs, b.Spec())
	}
	for _, s := range schemes {
		acfg.Schemes = append(acfg.Schemes, core.Options{Scheme: s, WCDL: wcdl, ExtendRegions: extend})
	}
	rep, err := vet.AVFCrossValidate(acfg)
	if err != nil {
		return usage("%v", err)
	}
	fmt.Print(rep)
	if jsonOut != "" {
		w := os.Stdout
		if jsonOut != "-" {
			f, err := os.Create(jsonOut)
			if err != nil {
				return usage("%v", err)
			}
			defer f.Close()
			w = f
		}
		if err := rep.WriteJSON(w); err != nil {
			return usage("%v", err)
		}
	}
	if !rep.Pass {
		fmt.Println("flamevet: AVF cross-validation FAILED")
		return 1
	}
	fmt.Printf("flamevet: AVF cross-validation passed (%d pairs)\n", len(rep.Pairs))
	return 0
}

// verifyProgram compiles prog for the scheme and runs the static passes.
// It returns nil when compilation itself failed (reported as a structure
// finding so the gate still trips).
func verifyProgram(prog *isa.Program, s core.Scheme, wcdl int, extend bool, cfg vet.Config, rep *vet.Report, quiet bool) *core.Compiled {
	comp, err := core.Compile(prog, core.Options{Scheme: s, WCDL: wcdl, ExtendRegions: extend})
	if err != nil {
		rep.Add(vet.Diagnostic{
			Check: "structure", Severity: vet.Error, Kernel: prog.Name,
			Scheme: s.String(), Inst: -1, Region: -1, Section: -1,
			Msg: fmt.Sprintf("scheme compilation failed: %v", err),
		})
		return nil
	}
	if !quiet {
		fmt.Printf("vet %s/%s: %d instructions\n", prog.Name, s, comp.Prog.Len())
	}
	vet.Check(vet.TargetOf(comp), cfg, rep)
	return comp
}

func parseSchemes(s string) ([]core.Scheme, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	if s == "" || s == "all" {
		return core.Schemes(), nil
	}
	var out []core.Scheme
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		sc, err := core.SchemeByName(name)
		if err != nil {
			return nil, fmt.Errorf("unknown scheme %q; choose from %s", name, strings.Join(core.SchemeFlagNames(), ", "))
		}
		out = append(out, sc)
	}
	return out, nil
}

func parseBenches(s string) ([]*bench.Benchmark, error) {
	s = strings.TrimSpace(s)
	if s == "all" {
		return bench.All(), nil
	}
	var out []*bench.Benchmark
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		b, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

func usage(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "flamevet: "+format+"\n", args...)
	return 2
}
