package dist

import (
	"strings"
	"testing"
)

// TestPromRendering pins the exposition-format details the exporter
// relies on: family order follows first-add order, HELP/TYPE appear
// once per family, values use shortest-roundtrip formatting, and label
// values are escaped per the 0.0.4 spec.
func TestPromRendering(t *testing.T) {
	p := newProm()
	p.Gauge("up", "Is it up.", 1)
	p.Counter("requests_total", "Requests.", 3, "code", "200")
	p.Counter("requests_total", "ignored on second add", 1.5, "code", "500")
	p.Gauge("ratio", "Shortest round-trip float.", 0.64)
	p.Gauge("weird", "Escaping.", 2, "v", "a\\b\"c\nd")

	got := string(p.Bytes())
	want := `# HELP up Is it up.
# TYPE up gauge
up 1
# HELP requests_total Requests.
# TYPE requests_total counter
requests_total{code="200"} 3
requests_total{code="500"} 1.5
# HELP ratio Shortest round-trip float.
# TYPE ratio gauge
ratio 0.64
# HELP weird Escaping.
# TYPE weird gauge
weird{v="a\\b\"c\nd"} 2
`
	if got != want {
		t.Fatalf("rendered page:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestPromLog2Histogram: the cumulative buckets, the +Inf bucket, and
// the _count series share one family header carrying the base name.
func TestPromLog2Histogram(t *testing.T) {
	p := newProm()
	p.Log2Histogram("depth", "Cycles.", []int{1, 0, 2, 1})
	got := string(p.Bytes())
	want := `# HELP depth Cycles.
# TYPE depth histogram
depth_bucket{le="1"} 1
depth_bucket{le="2"} 1
depth_bucket{le="4"} 3
depth_bucket{le="8"} 4
depth_bucket{le="+Inf"} 4
depth_count 4
`
	if got != want {
		t.Fatalf("histogram:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if strings.Count(got, "# TYPE depth ") != 1 {
		t.Fatalf("histogram family header emitted more than once:\n%s", got)
	}
}

func TestPromContentType(t *testing.T) {
	if !strings.Contains(promContentType, "version=0.0.4") {
		t.Fatalf("promContentType = %q", promContentType)
	}
}
