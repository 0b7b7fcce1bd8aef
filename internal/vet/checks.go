package vet

import (
	"fmt"
	"sort"
	"strings"
)

// CheckInfo describes one registered check.
type CheckInfo struct {
	// Name is the stable identifier used by -checks/-disable and in JSON
	// output.
	Name string
	// Doc is a one-line description.
	Doc string
	// Default reports whether the check runs when no explicit check list
	// is given.
	Default bool
}

// The check registry. Pass 1 (well-formedness) checks run on any program;
// pass 2 (Flame invariants) and the oracle need scheme context.
var registry = []CheckInfo{
	{"structure", "structural ISA validation (operand kinds, branch targets, register bounds)", true},
	{"use-before-def", "register or predicate read with no reaching definition", true},
	{"unreachable-code", "basic blocks unreachable from the kernel entry", true},
	{"mem-bounds", "statically resolvable shared/local accesses past the declared sizes", true},
	{"barrier-divergence", "barrier control-dependent on a thread-variant branch (deadlock)", true},
	{"sync-boundary", "sync primitive (bar/atom/membar) not isolated by region boundaries", true},
	{"idempotence-mem", "memory anti-dependence (WAR) inside a region", true},
	{"idempotence-pred", "predicate anti-dependence inside a region", true},
	{"residual-war", "register anti-dependence surviving the renaming pass", true},
	{"checkpoint-complete", "live-in register clobbered in a region without a checkpoint save", true},
	{"checkpoint-slots", "checkpoint store whose slot is missing or inconsistent with the slot map", true},
	{"wcdl-budget", "region worst-case length exceeds the sensor detection window", true},
	{"oracle", "dynamic re-execution disagrees with the static idempotence verdict", true},
}

// Checks returns the registry in a stable order.
func Checks() []CheckInfo {
	out := make([]CheckInfo, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func knownCheck(name string) bool {
	for _, c := range registry {
		if c.Name == name {
			return true
		}
	}
	return false
}

// Config selects which checks run and bounds their work. The zero value
// runs every default check.
type Config struct {
	// Enable, when non-empty, runs only the listed checks.
	Enable []string
	// Disable suppresses the listed checks (applied after Enable).
	Disable []string
	// WCDL is the worst-case detection latency budget in instructions for
	// the wcdl-budget check; 0 disables the budget comparison.
	WCDL int
	// OracleSteps bounds the dynamic instructions (first executions plus
	// replays) the oracle interprets per launch; 0 means
	// DefaultOracleSteps. An exhausted budget is reported as a warning,
	// not an error — the run is incomplete, not wrong.
	OracleSteps int
}

// DefaultOracleSteps is the per-launch dynamic-instruction budget of the
// re-execution oracle. The shipped benchmarks run well under it; it
// exists to bound runaway kernels, not to truncate healthy ones.
const DefaultOracleSteps = 20_000_000

// ParseCheckList validates a comma-separated check list against the
// registry. An empty or "all" list returns nil (meaning "all defaults").
func ParseCheckList(s string) ([]string, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return nil, nil
	}
	var out []string
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !knownCheck(name) {
			return nil, fmt.Errorf("vet: unknown check %q (see flamevet -list)", name)
		}
		out = append(out, name)
	}
	return out, nil
}

func (c *Config) enabled(name string) bool {
	for _, d := range c.Disable {
		if d == name {
			return false
		}
	}
	if len(c.Enable) > 0 {
		for _, e := range c.Enable {
			if e == name {
				return true
			}
		}
		return false
	}
	for _, info := range registry {
		if info.Name == name {
			return info.Default
		}
	}
	return false
}

func (c *Config) oracleSteps() int {
	if c.OracleSteps > 0 {
		return c.OracleSteps
	}
	return DefaultOracleSteps
}
