package dist

import (
	"bytes"
	"strconv"
	"strings"
)

// prom accumulates metric samples and renders them in the Prometheus
// text exposition format (version 0.0.4) with no client-library
// dependency. The output is deterministic: families render in the
// order their first sample was added, samples within a family in the
// order added, HELP and TYPE emitted once per family. Callers are
// expected to add all samples of a family together, in a stable order
// (sorted label values), so the rendered page is reproducible — the
// metrics golden test pins the exact bytes.
type prom struct {
	order []string
	fams  map[string]*promFamily
}

type promFamily struct {
	typ, help string
	samples   []promSample
}

type promSample struct {
	labels string // rendered `{k="v",...}` or ""
	value  float64
}

// newProm returns an empty metric page builder.
func newProm() *prom { return &prom{fams: map[string]*promFamily{}} }

// Counter adds one sample of a counter family. labels are alternating
// key, value pairs.
func (p *prom) Counter(name, help string, v float64, labels ...string) {
	p.add(name, "counter", help, v, labels)
}

// Gauge adds one sample of a gauge family.
func (p *prom) Gauge(name, help string, v float64, labels ...string) {
	p.add(name, "gauge", help, v, labels)
}

// Log2Histogram renders log2-bucketed counts (buckets[k] = observations
// whose value's log2 bucket is k, i.e. ~(2^(k-1), 2^k]) as a cumulative
// Prometheus histogram: <name>_bucket{le="2^k"} series, a +Inf bucket,
// and <name>_count. The observation sum is not tracked by the bucketed
// source data, so no _sum series is emitted.
func (p *prom) Log2Histogram(name, help string, buckets []int, labels ...string) {
	cum := 0
	for k, n := range buckets {
		cum += n
		le := strconv.FormatUint(1<<uint(k), 10)
		p.add(name+"_bucket", "histogram", help, float64(cum), append(append([]string{}, labels...), "le", le))
	}
	p.add(name+"_bucket", "histogram", help, float64(cum), append(append([]string{}, labels...), "le", "+Inf"))
	p.add(name+"_count", "histogram", help, float64(cum), labels)
}

func (p *prom) add(name, typ, help string, v float64, labels []string) {
	f := p.fams[name]
	if f == nil {
		f = &promFamily{typ: typ, help: help}
		p.fams[name] = f
		p.order = append(p.order, name)
	}
	f.samples = append(f.samples, promSample{labels: renderLabels(labels), value: v})
}

// renderLabels turns alternating key, value pairs into `{k="v",...}`,
// escaping backslash, quote, and newline in values per the format spec.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// Bytes renders the accumulated page.
func (p *prom) Bytes() []byte {
	var buf bytes.Buffer
	for _, name := range p.order {
		f := p.fams[name]
		// A histogram's _bucket and _count series belong to one family:
		// HELP/TYPE carry the stripped name and are emitted only for the
		// _bucket series (added first by Log2Histogram).
		switch {
		case f.typ == "histogram" && strings.HasSuffix(name, "_count"):
			// header already emitted with the _bucket series
		default:
			fam := name
			if f.typ == "histogram" {
				fam = strings.TrimSuffix(name, "_bucket")
			}
			buf.WriteString("# HELP ")
			buf.WriteString(fam)
			buf.WriteByte(' ')
			buf.WriteString(strings.ReplaceAll(f.help, "\n", " "))
			buf.WriteByte('\n')
			buf.WriteString("# TYPE ")
			buf.WriteString(fam)
			buf.WriteByte(' ')
			buf.WriteString(f.typ)
			buf.WriteByte('\n')
		}
		for _, s := range f.samples {
			buf.WriteString(name)
			buf.WriteString(s.labels)
			buf.WriteByte(' ')
			buf.WriteString(strconv.FormatFloat(s.value, 'g', -1, 64))
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes()
}

// promContentType is the HTTP Content-Type of the rendered page.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"
