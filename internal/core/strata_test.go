package core

import (
	"strings"
	"testing"

	"flame/internal/flame"
	"flame/internal/isa"
)

// SiteLabels must spell every corruptible site's static class and leave
// never-corruptible instructions unlabeled: the dead tail of
// deadTailSpec is "dead", the store chain is "store", global-store data
// is "store" by construction, and exit carries no label.
func TestSiteLabels(t *testing.T) {
	prog := deadTailSpec().Prog
	sites := flame.NewSites(prog)
	labels := SiteLabels(sites)
	reach := sites.StoreReach()
	for i := range prog.Insts {
		in := &prog.Insts[i]
		l := labels[i]
		switch {
		case in.Op == isa.OpSt && in.Space == isa.SpaceGlobal:
			if l != "store" {
				t.Errorf("inst %d (%s): label %q, want store (store data reaches memory)", i, in.String(), l)
			}
		case in.Defs() == isa.NoReg:
			if l != "" {
				t.Errorf("inst %d (%s): label %q on a defless instruction", i, in.String(), l)
			}
		case !reach[in.Defs()]:
			// Outside the store-reach slice: dead, short or long, never store.
			if l == "store" || l == "" {
				t.Errorf("inst %d (%s): label %q for a non-store-reaching def", i, in.String(), l)
			}
		}
	}
	// The xor at the end of the dead chain writes a never-read register.
	last := len(prog.Insts) - 2 // xor r23, ... just before exit
	if labels[last] != "dead" {
		t.Errorf("dead-tail xor labeled %q, want dead", labels[last])
	}
}

// The liveness key refines the default enumeration without changing
// what it covers: same span, same no-injection tail, and the label
// split of each (section, class) group sums to the unlabeled group's
// exact site count.
func TestBuildStrataKeyedLivenessRefines(t *testing.T) {
	cfg := testCfg()
	for _, opt := range []Options{{Scheme: Baseline}, FlameOptions()} {
		spec := deadTailSpec()
		g, err := GoldenRun(cfg, spec, opt)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := BuildStrataKeyed(cfg, spec, g, flame.DataSlice, StrataKeySectionClass)
		if err != nil {
			t.Fatal(err)
		}
		keyed, err := BuildStrataKeyed(cfg, spec, g, flame.DataSlice, StrataKeyLiveness)
		if err != nil {
			t.Fatal(err)
		}
		if keyed.Span != plain.Span || keyed.NoInjectionSites != plain.NoInjectionSites {
			t.Fatalf("%s: keyed enumeration covers a different space: %+v vs %+v", opt.Scheme, keyed, plain)
		}
		groups := map[string]int64{}
		for i := range keyed.Strata {
			s := &keyed.Strata[i]
			parts := strings.Split(s.Key(), "/")
			if len(parts) != 4 {
				t.Fatalf("%s: keyed stratum key %q lacks the liveness segment", opt.Scheme, s.Key())
			}
			switch parts[3] {
			case "dead", "short", "long", "store":
			default:
				t.Fatalf("%s: unknown liveness label %q in %q", opt.Scheme, parts[3], s.Key())
			}
			groups[strings.Join(parts[:3], "/")] += s.Sites
		}
		for i := range plain.Strata {
			s := &plain.Strata[i]
			if groups[s.Key()] != s.Sites {
				t.Fatalf("%s: group %s: labeled sites %d, want %d",
					opt.Scheme, s.Key(), groups[s.Key()], s.Sites)
			}
		}
		if len(keyed.Strata) <= len(plain.Strata) {
			t.Fatalf("%s: liveness key did not split any group (%d vs %d strata): deadTailSpec mixes dead and store sites in one class",
				opt.Scheme, len(keyed.Strata), len(plain.Strata))
		}
	}
}

func TestParseStrataKey(t *testing.T) {
	for in, want := range map[string]StrataKey{
		"":              StrataKeySectionClass,
		"section-class": StrataKeySectionClass,
		"liveness":      StrataKeyLiveness,
	} {
		got, err := ParseStrataKey(in)
		if err != nil || got != want {
			t.Errorf("ParseStrataKey(%q) = %q, %v", in, got, err)
		}
	}
	if _, err := ParseStrataKey("opcode"); err == nil {
		t.Error("bogus key accepted")
	}
	if _, err := BuildStrataKeyed(testCfg(), saxpySpec(), &Golden{}, flame.DataSlice, "bogus"); err == nil {
		t.Error("BuildStrataKeyed accepted a bogus key")
	}
}
