package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean(2,8) = %v", g)
	}
	if g := Geomean(nil); g != 0 {
		t.Fatalf("geomean(nil) = %v", g)
	}
	if g := Geomean([]float64{1, -1}); !math.IsNaN(g) {
		t.Fatalf("geomean with negative should be NaN, got %v", g)
	}
}

func TestGeomeanProperties(t *testing.T) {
	// Geomean of identical values is the value; scaling inputs scales it.
	if err := quick.Check(func(a uint8, n uint8) bool {
		v := 1 + float64(a)/16
		xs := make([]float64, int(n%8)+1)
		for i := range xs {
			xs[i] = v
		}
		return math.Abs(Geomean(xs)-v) < 1e-9
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(a, b uint8) bool {
		x, y := 1+float64(a)/16, 1+float64(b)/16
		g1 := Geomean([]float64{x, y})
		g2 := Geomean([]float64{2 * x, 2 * y})
		return math.Abs(g2-2*g1) < 1e-9
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanMax(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("mean = %v", m)
	}
	v, i := Max([]float64{1, 5, 3})
	if v != 5 || i != 1 {
		t.Fatalf("max = %v@%d", v, i)
	}
	if _, i := Max(nil); i != -1 {
		t.Fatal("max(nil) index")
	}
}

func TestOverheadPct(t *testing.T) {
	if s := OverheadPct(1.006); s != "+0.60%" {
		t.Fatalf("pct = %q", s)
	}
	if s := OverheadPct(0.977); s != "-2.30%" {
		t.Fatalf("pct = %q", s)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := &Table{Header: []string{"name", "value"}}
	tb.Add("x", 1.5)
	tb.Add("longer-name", 22)
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[2], "1.5000") {
		t.Fatalf("format:\n%s", out)
	}
	// Columns align: "value" column starts at the same offset everywhere.
	idx := strings.Index(lines[0], "value")
	if !strings.HasPrefix(lines[2][idx:], "1.5000") {
		t.Fatalf("misaligned:\n%s", out)
	}
}

func TestSeriesString(t *testing.T) {
	s := Series{Name: "x", Labels: []string{"a", "b"}, Values: []float64{1, 2.5}}
	if got := s.String(); got != "x: a=1 b=2.5" {
		t.Fatalf("series = %q", got)
	}
}

func TestWilson(t *testing.T) {
	// Textbook value: 8/10 at 95% is roughly [0.49, 0.94].
	lo, hi := Wilson95(8, 10)
	if math.Abs(lo-0.4901) > 0.005 || math.Abs(hi-0.9433) > 0.005 {
		t.Fatalf("wilson(8,10) = [%v, %v]", lo, hi)
	}
	// Extremes stay inside [0,1] and are non-degenerate: k=n gives an
	// interval whose lower bound rises with n but never reaches 1.
	lo, hi = Wilson95(100, 100)
	if hi != 1 || lo <= 0.95 || lo >= 1 {
		t.Fatalf("wilson(100,100) = [%v, %v]", lo, hi)
	}
	lo, hi = Wilson95(0, 100)
	if lo > 1e-12 || hi >= 0.05 || hi <= 0 {
		t.Fatalf("wilson(0,100) = [%v, %v]", lo, hi)
	}
	// n = 0 is vacuous.
	if lo, hi = Wilson95(0, 0); lo != 0 || hi != 1 {
		t.Fatalf("wilson(0,0) = [%v, %v]", lo, hi)
	}
}

func TestWilsonProperties(t *testing.T) {
	if err := quick.Check(func(k, n uint8) bool {
		kk, nn := int(k), int(n)
		if kk > nn {
			kk, nn = nn, kk
		}
		lo, hi := Wilson95(kk, nn)
		if nn == 0 {
			return lo == 0 && hi == 1
		}
		p := float64(kk) / float64(nn)
		return 0 <= lo && lo <= p+1e-9 && p <= hi+1e-9 && hi <= 1
	}, nil); err != nil {
		t.Error(err)
	}
	// Tightens with n at fixed proportion.
	lo1, hi1 := Wilson95(5, 10)
	lo2, hi2 := Wilson95(500, 1000)
	if hi2-lo2 >= hi1-lo1 {
		t.Fatalf("interval did not tighten: [%v,%v] vs [%v,%v]", lo1, hi1, lo2, hi2)
	}
}
