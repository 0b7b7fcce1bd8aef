package core

import (
	"math"
	"reflect"

	"flame/internal/gpu"
)

// WithoutImage returns a copy of the golden without a resume image:
// its trials all run from cycle 0, the reference resumed trials are
// checked against.
func (g *Golden) WithoutImage() *Golden {
	c := *g
	c.image = nil
	return &c
}

// ImageCycle makes the golden's resume image if it has none yet and
// returns the cycle trials resume from, or -1 without one.
func (g *Golden) ImageCycle(cfg gpu.Config, spec *KernelSpec) int64 {
	if g.image == nil {
		return -1
	}
	dev, err := gpu.NewDevice(cfg, spec.MemBytes)
	if err != nil {
		panic(err)
	}
	copy(dev.Mem.Words(), g.InitMem)
	g.resumeFrom(dev, spec, TrialSpec{Arms: []int64{math.MaxInt64}})
	img := g.image.img.Load()
	if img == nil {
		return -1
	}
	return img.dev.Cycle()
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
