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
// -avf -avf-trials 0 prints only the static predictions, no campaign:
//
//	flamevet -avf -avf-trials 0 -bench Triad -scheme renaming
//
// Exit status: 0 when no finding reaches the -fail-on severity (default
// error), 1 when one does, 2 on usage or harness errors.
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
	"flame/internal/isa"
	"flame/internal/vet"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is flamevet on the command-line arguments args; it returns the
// exit status.
func run(args []string) int {
	fs := flag.NewFlagSet("flamevet", flag.ExitOnError)
	in := fs.String("in", "", "verify a kernel assembly file")
	benchFlag := fs.String("bench", "", "comma-separated benchmark names, or \"all\"")
	schemeFlag := fs.String("scheme", "all", "comma-separated schemes, or \"all\": "+strings.Join(core.SchemeFlagNames(), ", "))
	wcdl := fs.Int("wcdl", 20, "sensor worst-case detection latency budget (instructions)")
	extend := fs.Bool("extend", true, "enable the Section III-E region extension (sensor schemes)")
	oracle := fs.Bool("oracle", false, "run the dynamic re-execution oracle (needs -bench: launches real inputs)")
	checks := fs.String("checks", "", "run only these checks (comma-separated; see -list)")
	disable := fs.String("disable", "", "disable these checks (comma-separated)")
	jsonOut := fs.String("json", "", "also write the findings as JSON to this file (\"-\" for stdout)")
	failOn := fs.String("fail-on", "error", "lowest severity that fails the run: info, warning, error")
	quiet := fs.Bool("q", false, "suppress per-target progress lines")
	list := fs.Bool("list", false, "print the check registry and exit")
	avfGate := fs.Bool("avf", false, "run the AVF model-vs-campaign cross-validation gate (needs -bench)")
	avfTrials := fs.Int("avf-trials", 200, "injection trials per benchmark in the AVF gate campaign (0 = print the static predictions only, no campaign)")
	archName := fs.String("arch", "GTX480", "GPU architecture for the AVF gate: GTX480, TITANX, GV100, RTX2060")
	modelFlag := fs.String("model", "data", "fault model for the AVF gate: data or full")
	parallel := fs.Int("parallel", 0, "AVF gate campaign workers (0 = GOMAXPROCS)")
	seed := fs.Uint64("seed", 42, "AVF gate campaign seed")
	fs.Parse(args) // ExitOnError: -h exits 0, a bad flag 2

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
	cfg := vet.Config{WCDL: *wcdl}
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

	if *oracle && *benchFlag == "" {
		return usage("-oracle needs -bench NAME[,NAME...]|all (it launches the benchmarks' real inputs)")
	}

	if *avfGate {
		return runAVF(*benchFlag, schemes, *wcdl, *extend, *archName, *modelFlag,
			*avfTrials, *parallel, *seed, *jsonOut)
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

	if err := writeJSON(*jsonOut, rep.WriteJSON); err != nil {
		return usage("%v", err)
	}

	if max, any := rep.Max(); any && max >= failSev {
		return 1
	}
	return 0
}

// runAVF runs the AVF cross-validation gate over the benchmark×scheme
// matrix and returns the process exit status (0 pass, 1 fail, 2 usage).
func runAVF(benchFlag string, schemes []core.Scheme, wcdl int, extend bool,
	archName, modelName string, trials, parallel int,
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
	switch {
	case trials < 0:
		return usage("-avf-trials must be >= 0")
	case trials == 0 && jsonOut != "":
		return usage("-json needs a campaign: -avf-trials 0 prints the predictions only")
	case trials == 0:
		return predictAVF(arch, benches, schemes, wcdl, extend, model)
	}
	acfg := vet.AVFConfig{
		Arch:     arch,
		Model:    model,
		Trials:   trials,
		Parallel: parallel,
		Seed:     seed,
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
	if err := writeJSON(jsonOut, rep.WriteJSON); err != nil {
		return usage("%v", err)
	}
	if !rep.Pass {
		fmt.Println("flamevet: AVF cross-validation FAILED")
		return 1
	}
	fmt.Printf("flamevet: AVF cross-validation passed (%d pairs)\n", len(rep.Pairs))
	return 0
}

// predictAVF prints the static AVF prediction of every benchmark×scheme
// pair (-avf -avf-trials 0) without running a campaign.
func predictAVF(arch gpu.Config, benches []*bench.Benchmark, schemes []core.Scheme, wcdl int, extend bool,
	model flame.FaultModel) int {
	for i, b := range benches {
		for j, s := range schemes {
			p, err := vet.Predict(arch, b.Spec(), core.Options{Scheme: s, WCDL: wcdl, ExtendRegions: extend}, model)
			if err != nil {
				return usage("%v", err)
			}
			if i+j > 0 {
				fmt.Println()
			}
			fmt.Print(p.String())
		}
	}
	return 0
}

// writeJSON writes a -json output with write: nowhere for "", to stdout
// for "-", else to the named file.
func writeJSON(path string, write func(io.Writer) error) error {
	switch path {
	case "":
		return nil
	case "-":
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
