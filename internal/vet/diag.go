// Package vet is the Flame static verifier: a multi-pass analyzer over
// register-allocated ISA programs that accumulates all findings (instead
// of failing fast) on a shared diagnostics engine, plus a dynamic
// re-execution oracle that cross-checks the static idempotence verdict by
// replaying every committed region in a functional evaluator and diffing
// architectural state.
//
// The passes are:
//
//  1. ISA well-formedness — structural validation, use-before-def,
//     unreachable code, static memory-bounds, and barrier-under-divergence
//     deadlock detection (File);
//  2. Flame invariants — idempotence (sync isolation, WAR freedom),
//     checkpoint completeness, residual post-rename WARs, and the WCDL
//     region-length budget (Compiled);
//  3. the dynamic idempotence oracle — per-region re-execution with
//     architectural state diffing (Oracle).
package vet

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Severity grades a diagnostic.
type Severity uint8

// Severity levels, in ascending order.
const (
	// Info is advisory output that never gates a build.
	Info Severity = iota
	// Warning marks a finding that deserves review but does not break the
	// recovery invariants (or cannot be proven to).
	Warning
	// Error marks a proven violation of a well-formedness or recovery
	// invariant.
	Error
)

// String returns the severity's lowercase name.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", uint8(s))
}

// MarshalJSON encodes the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON decodes a severity name.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "info":
		*s = Info
	case "warning":
		*s = Warning
	case "error":
		*s = Error
	default:
		return fmt.Errorf("vet: unknown severity %q", name)
	}
	return nil
}

// ParseSeverity parses a severity name ("info", "warning", "error").
func ParseSeverity(name string) (Severity, error) {
	var s Severity
	err := s.UnmarshalJSON([]byte(`"` + name + `"`))
	return s, err
}

// Diagnostic is one finding. Inst is -1 when the finding is not anchored
// to an instruction; Region and Section are -1 when the finding has no
// region/section context (pass-1 findings, un-regioned programs).
type Diagnostic struct {
	Check    string   `json:"check"`
	Severity Severity `json:"severity"`
	Kernel   string   `json:"kernel"`
	Scheme   string   `json:"scheme,omitempty"`
	Inst     int      `json:"inst"`
	Line     int      `json:"line,omitempty"`
	Asm      string   `json:"asm,omitempty"`
	Region   int      `json:"region"`
	Section  int      `json:"section"`
	Msg      string   `json:"message"`
}

// String renders the diagnostic in the human-readable one-line form.
func (d Diagnostic) String() string {
	loc := d.Kernel
	if d.Scheme != "" {
		loc += "/" + d.Scheme
	}
	if d.Inst >= 0 {
		loc += fmt.Sprintf(":%d", d.Inst)
		if d.Line > 0 {
			loc += fmt.Sprintf(" (line %d)", d.Line)
		}
	}
	ctx := ""
	if d.Region >= 0 {
		ctx = fmt.Sprintf(" [region %d", d.Region)
		if d.Section >= 0 {
			ctx += fmt.Sprintf(", section %d", d.Section)
		}
		ctx += "]"
	}
	s := fmt.Sprintf("%s: %s: %s: %s%s", loc, d.Severity, d.Check, d.Msg, ctx)
	if d.Asm != "" {
		s += fmt.Sprintf("  | %s", d.Asm)
	}
	return s
}

// Report accumulates diagnostics across passes, kernels, and schemes.
type Report struct {
	Diags []Diagnostic

	cfg Config
}

// NewReport creates a report filtering diagnostics through the config.
func NewReport(cfg Config) *Report { return &Report{cfg: cfg} }

// Add appends a diagnostic unless its check is disabled.
func (r *Report) Add(d Diagnostic) {
	if !r.cfg.enabled(d.Check) {
		return
	}
	r.Diags = append(r.Diags, d)
}

// Count returns how many diagnostics have exactly the given severity.
func (r *Report) Count(sev Severity) int {
	n := 0
	for i := range r.Diags {
		if r.Diags[i].Severity == sev {
			n++
		}
	}
	return n
}

// Errors returns the number of error-severity diagnostics.
func (r *Report) Errors() int { return r.Count(Error) }

// Max returns the highest severity present, and false when the report is
// empty.
func (r *Report) Max() (Severity, bool) {
	if len(r.Diags) == 0 {
		return Info, false
	}
	m := Info
	for i := range r.Diags {
		if r.Diags[i].Severity > m {
			m = r.Diags[i].Severity
		}
	}
	return m, true
}

// ByCheck returns diagnostic counts keyed by check name.
func (r *Report) ByCheck() map[string]int {
	m := map[string]int{}
	for i := range r.Diags {
		m[r.Diags[i].Check]++
	}
	return m
}

// Sort orders diagnostics by kernel, scheme, instruction, then check, so
// output is deterministic regardless of pass order.
func (r *Report) Sort() {
	sort.SliceStable(r.Diags, func(i, j int) bool {
		a, b := &r.Diags[i], &r.Diags[j]
		if a.Kernel != b.Kernel {
			return a.Kernel < b.Kernel
		}
		if a.Scheme != b.Scheme {
			return a.Scheme < b.Scheme
		}
		if a.Inst != b.Inst {
			return a.Inst < b.Inst
		}
		return a.Check < b.Check
	})
}

// WriteText writes the human-readable report: one line per diagnostic at
// or above min, then a severity summary.
func (r *Report) WriteText(w io.Writer, min Severity) error {
	for i := range r.Diags {
		if r.Diags[i].Severity < min {
			continue
		}
		if _, err := fmt.Fprintln(w, r.Diags[i].String()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "vet: %d error(s), %d warning(s), %d info\n",
		r.Count(Error), r.Count(Warning), r.Count(Info))
	return err
}

// jsonReport is the stable JSON schema of a vet run.
type jsonReport struct {
	Errors   int            `json:"errors"`
	Warnings int            `json:"warnings"`
	Infos    int            `json:"infos"`
	ByCheck  map[string]int `json:"by_check"`
	Findings []Diagnostic   `json:"findings"`
}

// WriteJSON writes the machine-readable report.
func (r *Report) WriteJSON(w io.Writer) error {
	findings := r.Diags
	if findings == nil {
		findings = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonReport{
		Errors:   r.Count(Error),
		Warnings: r.Count(Warning),
		Infos:    r.Count(Info),
		ByCheck:  r.ByCheck(),
		Findings: findings,
	})
}
