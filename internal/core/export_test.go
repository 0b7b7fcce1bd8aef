package core

import "reflect"

// PruneIndexDiff names the first field in which two prune indexes
// differ, or returns "" when they are deep-equal.
func PruneIndexDiff(a, b *PruneIndex) string {
	for _, f := range []struct {
		name string
		x, y any
	}{
		{"events", a.events, b.events},
		{"vuln", a.vuln, b.vuln},
		{"lastUse", a.lastUse, b.lastUse},
		{"disabled", a.disabled, b.disabled},
		{"detecting", a.detecting, b.detecting},
	} {
		if !reflect.DeepEqual(f.x, f.y) {
			return f.name
		}
	}
	if !reflect.DeepEqual(*a, *b) {
		return "some other field"
	}
	return ""
}
