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
		{"mainCycles", a.mainCycles, b.mainCycles},
		{"disabled", a.disabled, b.disabled},
		{"window", a.window, b.window},
		{"maxDelay", a.maxDelay, b.maxDelay},
		{"detecting", a.detecting, b.detecting},
		{"storeReach", a.storeReach, b.storeReach},
		{"acl", a.acl, b.acl},
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

// PruneMainCycles exposes the main-launch cycle count the index's
// detection model uses.
func PruneMainCycles(px *PruneIndex) int64 { return px.mainCycles }
