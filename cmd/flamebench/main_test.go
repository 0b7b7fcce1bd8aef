package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseExps: -exp accepts any list of experiment names and rejects
// an unknown one with an error that lists the valid names, so a typo or
// a retired name (coverage) cannot silently run nothing.
func TestParseExps(t *testing.T) {
	got, err := parseExps("fig13, masking,inject")
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]bool{"fig13": true, "masking": true, "inject": true}; !reflect.DeepEqual(got, want) {
		t.Errorf("parseExps = %v, want %v", got, want)
	}
	for _, bad := range []string{"nosuch", "coverage", "fig13,coverage", ""} {
		_, err := parseExps(bad)
		if err == nil {
			t.Errorf("%q: accepted", bad)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "unknown experiment") || !strings.Contains(msg, strings.Join(experiments, ",")) {
			t.Errorf("%q: error %q does not list the valid experiments", bad, msg)
		}
	}
}
