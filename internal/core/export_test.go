package core

import "reflect"

// FromCycleZero makes e the from-cycle-0 reference: every trial
// simulates its whole main launch instead of starting from the golden
// cursor. It returns e.
func (e *Engine) FromCycleZero() *Engine {
	e.fromZero = true
	return e
}

// PruneIndexDiff names the first field in which two prune indexes
// differ, or returns "" when they are deep-equal.
func PruneIndexDiff(a, b *PruneIndex) string {
	for _, f := range []struct {
		name string
		x, y any
	}{
		{"events", a.events, b.events},
		{"vuln", a.vuln, b.vuln},
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
