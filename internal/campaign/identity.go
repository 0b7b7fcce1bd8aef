package campaign

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"flame/internal/core"
	"flame/internal/flame"
	"flame/internal/gpu"
)

// Identity is everything that makes two campaigns the same campaign:
// the full GPU configuration (trial results depend on every
// microarchitectural knob), the compilation, the workloads, the trial
// grid and every setting that changes a trial's outcome or the report.
// It is written in CLI spellings (scheme flag name, fault-model name,
// benchmark registry names), so it round-trips through JSON. A
// campaign's event stream opens with it (campaign_start), the
// distributed coordinator serves it to workers and checkpoints it, and
// both resume checks compare it with Diff.
type Identity struct {
	Arch               gpu.Config `json:"arch"`
	Scheme             string     `json:"scheme"` // core.SchemeByName spelling
	WCDL               int        `json:"wcdl"`
	ExtendRegions      bool       `json:"extend_regions"`
	EagerSectionVerify bool       `json:"eager_section_verify,omitempty"`
	CkptAtRegionEnd    bool       `json:"ckpt_at_region_end,omitempty"`
	Benchmarks         []string   `json:"benchmarks"`
	Trials             int        `json:"trials_per_benchmark"`
	Seed               uint64     `json:"seed"`
	Model              string     `json:"model"`
	StrikesPerTrial    int        `json:"strikes_per_trial"`
	HangBudgetMult     int64      `json:"hang_budget_mult"`
	TrialTimeoutMS     int64      `json:"trial_timeout_ms,omitempty"`
	Prune              bool       `json:"prune,omitempty"`
	CITarget           float64    `json:"ci_target,omitempty"`
	Trace              bool       `json:"trace,omitempty"`
	Stratify           bool       `json:"stratify,omitempty"`
	Pilot              int        `json:"pilot,omitempty"`
	StrataKey          string     `json:"strata_key,omitempty"`
}

// Identity captures the campaign's identity. WCDL and strikes per
// trial are recorded as they take effect (a zero WCDL compiles at 20,
// zero strikes arm one), so a campaign spelled with defaults and one
// spelled with their values are the same campaign.
func (cfg *Config) Identity() Identity {
	benches := make([]string, len(cfg.Specs))
	for i, sp := range cfg.Specs {
		benches[i] = sp.Name
	}
	return Identity{
		Arch:               cfg.Arch,
		Scheme:             cfg.Opt.Scheme.FlagName(),
		WCDL:               cfg.Opt.EffectiveWCDL(),
		ExtendRegions:      cfg.Opt.ExtendRegions,
		EagerSectionVerify: cfg.Opt.EagerSectionVerify,
		CkptAtRegionEnd:    cfg.Opt.CkptAtRegionEnd,
		Benchmarks:         benches,
		Trials:             cfg.Trials,
		Seed:               cfg.Seed,
		Model:              cfg.Model.String(),
		StrikesPerTrial:    max(1, cfg.StrikesPerTrial),
		HangBudgetMult:     cfg.HangBudgetMult,
		TrialTimeoutMS:     cfg.TrialTimeout.Milliseconds(),
		Prune:              cfg.Prune,
		CITarget:           cfg.CITarget,
		Trace:              cfg.Trace,
		Stratify:           cfg.Stratify,
		Pilot:              cfg.Pilot,
		StrataKey:          cfg.StrataKey,
	}
}

// Config rebuilds the campaign this identity names on specs, the
// compiled workloads of Benchmarks in order (the caller resolves the
// names: the benchmark registry cannot be imported here). It rejects an
// unknown scheme or fault model but does not Validate.
func (id *Identity) Config(specs []*core.KernelSpec) (Config, error) {
	scheme, err := core.SchemeByName(id.Scheme)
	if err != nil {
		return Config{}, fmt.Errorf("%w (want one of %s)", err, strings.Join(core.SchemeFlagNames(), ", "))
	}
	model, err := flame.ParseFaultModel(id.Model)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Arch: id.Arch,
		Opt: core.Options{
			Scheme: scheme, WCDL: id.WCDL, ExtendRegions: id.ExtendRegions,
			EagerSectionVerify: id.EagerSectionVerify, CkptAtRegionEnd: id.CkptAtRegionEnd,
		},
		Specs:           specs,
		Trials:          id.Trials,
		Seed:            id.Seed,
		Model:           model,
		StrikesPerTrial: id.StrikesPerTrial,
		HangBudgetMult:  id.HangBudgetMult,
		TrialTimeout:    time.Duration(id.TrialTimeoutMS) * time.Millisecond,
		Prune:           id.Prune,
		CITarget:        id.CITarget,
		Trace:           id.Trace,
		Stratify:        id.Stratify,
		Pilot:           id.Pilot,
		StrataKey:       id.StrataKey,
	}, nil
}

// Diff returns the first field in which two identities differ, named
// by its JSON key (a GPU knob as arch.<Knob>), with its value in each;
// field is "" when they are the same campaign.
func (id *Identity) Diff(other *Identity) (field string, a, b any) {
	return diffFields(reflect.ValueOf(*id), reflect.ValueOf(*other), "")
}

// diffFields walks two values of one struct type field by field,
// descending into nested structs.
func diffFields(x, y reflect.Value, prefix string) (string, any, any) {
	for i := 0; i < x.NumField(); i++ {
		f := x.Type().Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "" {
			name = f.Name
		}
		if f.Type.Kind() == reflect.Struct {
			if field, a, b := diffFields(x.Field(i), y.Field(i), prefix+name+"."); field != "" {
				return field, a, b
			}
			continue
		}
		if a, b := x.Field(i).Interface(), y.Field(i).Interface(); !reflect.DeepEqual(a, b) {
			return prefix + name, a, b
		}
	}
	return "", nil, nil
}
