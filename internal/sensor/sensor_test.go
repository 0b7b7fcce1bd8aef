package sensor

import (
	"testing"
	"testing/quick"
)

func TestGTX480CalibrationPoints(t *testing.T) {
	// Figure 12 / Section VI-A1: 50-300 sensors give ~50-15 cycles, with
	// 200 sensors at exactly 20 cycles of WCDL on GTX480.
	cases := []struct{ sensors, wcdl int }{
		{50, 50}, {200, 20}, {300, 15},
	}
	for _, c := range cases {
		d := Deployment{SensorsPerSM: c.sensors, SMAreaMM2: 17.5, FreqMHz: 700}
		if got := d.WCDL(); got != c.wcdl {
			t.Errorf("GTX480 %d sensors: WCDL=%d, want %d", c.sensors, got, c.wcdl)
		}
	}
}

func TestTableIISensorCounts(t *testing.T) {
	// Table II: sensors per SM required for 20-cycle WCDL.
	want := map[string]int{"GTX480": 200, "RTX2060": 248, "GV100": 128, "TITANX": 260}
	for _, spec := range Specs {
		n, err := SensorsFor(20, spec.SMAreaMM2, spec.FreqMHz)
		if err != nil {
			t.Fatal(err)
		}
		w := want[spec.Name]
		// Allow ±2% slack from the back-derived areas.
		if n < w-5 || n > w+5 {
			t.Errorf("%s: sensors for 20 cycles = %d, want ≈%d", spec.Name, n, w)
		}
	}
}

func TestAreaOverheadUnderTenth(t *testing.T) {
	// Table II: area overhead < 0.1% for all four architectures.
	for _, spec := range Specs {
		n, err := SensorsFor(20, spec.SMAreaMM2, spec.FreqMHz)
		if err != nil {
			t.Fatal(err)
		}
		d := Deployment{SensorsPerSM: n, SMAreaMM2: spec.SMAreaMM2, FreqMHz: spec.FreqMHz}
		if ov := d.AreaOverhead(); ov >= 0.001 {
			t.Errorf("%s: area overhead %.4f%% >= 0.1%%", spec.Name, ov*100)
		}
	}
}

func TestWCDLMonotonicInSensors(t *testing.T) {
	if err := quick.Check(func(s uint16) bool {
		n := int(s%2000) + 1
		a := Deployment{SensorsPerSM: n, SMAreaMM2: 17.5, FreqMHz: 700}.WCDL()
		b := Deployment{SensorsPerSM: n + 1, SMAreaMM2: 17.5, FreqMHz: 700}.WCDL()
		return b <= a && a >= 1
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestSensorsForInvertsWCDL(t *testing.T) {
	for wcdl := 10; wcdl <= 50; wcdl += 10 {
		n, err := SensorsFor(wcdl, 17.5, 700)
		if err != nil {
			t.Fatal(err)
		}
		d := Deployment{SensorsPerSM: n, SMAreaMM2: 17.5, FreqMHz: 700}
		if d.WCDL() > wcdl {
			t.Errorf("SensorsFor(%d)=%d but WCDL=%d", wcdl, n, d.WCDL())
		}
		if n > 1 {
			d.SensorsPerSM = n - 1
			if d.WCDL() <= wcdl {
				t.Errorf("SensorsFor(%d)=%d not minimal", wcdl, n)
			}
		}
	}
}

func TestCurveShape(t *testing.T) {
	pts := Curve(Specs[0], 50, 300, 50) // GTX480
	if len(pts) != 6 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].WCDL > pts[i-1].WCDL {
			t.Fatalf("curve not monotone: %+v", pts)
		}
	}
	if pts[0].WCDL != 50 || pts[len(pts)-1].WCDL != 15 {
		t.Fatalf("endpoints: %+v", pts)
	}
}
