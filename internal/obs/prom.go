package obs

import (
	"io"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Prometheus text-format exposition (version 0.0.4), hand-rolled so
// the observability layer stays stdlib-only. An Exposition collects
// metric samples grouped into families (one # HELP / # TYPE pair per
// family, however many labeled series it holds) and renders them in
// insertion order — deterministic output, which the conformance tests
// and scrape diffing both rely on.

// Labels is an ordered label set. Order is preserved on the wire, so
// callers should pass labels in a stable order.
type Labels []Label

// Label is one name/value pair.
type Label struct{ Name, Value string }

// L is shorthand for a single-label set.
func L(name, value string) Labels { return Labels{{Name: name, Value: value}} }

type promSample struct {
	suffix string // "", "_bucket", "_sum", "_count"
	labels Labels // shared by every sample of one histogram series
	le     string // a _bucket sample's upper bound, rendered after labels
	value  float64
}

// leBounds are the histogram buckets' le label values, in seconds:
// every fixed log₂ bound, then +Inf.
var leBounds = func() (b [NumHistBuckets]string) {
	for i := range NumHistBuckets - 1 {
		b[i] = formatFloat(float64(BucketUpperNanos(i)) / float64(time.Second))
	}
	b[NumHistBuckets-1] = "+Inf"
	return b
}()

type promFamily struct {
	name, help, typ string
	samples         []promSample
}

// Exposition accumulates metric families for one scrape.
type Exposition struct {
	families []*promFamily
	index    map[string]*promFamily
}

// NewExposition returns an empty exposition builder.
func NewExposition() *Exposition {
	return &Exposition{index: make(map[string]*promFamily)}
}

func (e *Exposition) family(name, help, typ string) *promFamily {
	if f, ok := e.index[name]; ok {
		return f
	}
	f := &promFamily{name: name, help: help, typ: typ}
	e.families = append(e.families, f)
	e.index[name] = f
	return f
}

// Counter adds one series of a counter family. By convention the name
// should end in _total (or another unit suffix for totals).
func (e *Exposition) Counter(name, help string, labels Labels, v float64) {
	f := e.family(name, help, "counter")
	f.samples = append(f.samples, promSample{labels: labels, value: v})
}

// Gauge adds one series of a gauge family.
func (e *Exposition) Gauge(name, help string, labels Labels, v float64) {
	f := e.family(name, help, "gauge")
	f.samples = append(f.samples, promSample{labels: labels, value: v})
}

// Histogram adds one series of a histogram family from a snapshot:
// cumulative _bucket samples with le bounds in seconds (every fixed
// log₂ bucket plus +Inf), then _sum and _count. Bucket counts are
// cumulative and monotone by construction. Every sample keeps labels,
// as Counter's and Gauge's do, so the caller must not change it after.
func (e *Exposition) Histogram(name, help string, labels Labels, s HistSnapshot) {
	f := e.family(name, help, "histogram")
	f.samples = slices.Grow(f.samples, NumHistBuckets+2)
	cum := uint64(0)
	for i := 0; i < NumHistBuckets-1; i++ {
		cum += s.Buckets[i]
		f.samples = append(f.samples, promSample{suffix: "_bucket", labels: labels, le: leBounds[i], value: float64(cum)})
	}
	// The +Inf bucket must equal _count; use Count rather than the
	// bucket sum so a racy snapshot still satisfies the invariant.
	total := cum + s.Buckets[NumHistBuckets-1]
	if s.Count > total {
		total = s.Count
	}
	f.samples = append(f.samples, promSample{suffix: "_bucket", labels: labels, le: leBounds[NumHistBuckets-1], value: float64(total)})
	f.samples = append(f.samples, promSample{suffix: "_sum", labels: labels, value: s.SumSeconds()})
	f.samples = append(f.samples, promSample{suffix: "_count", labels: labels, value: float64(total)})
}

// WriteTo renders the exposition in Prometheus text format.
func (e *Exposition) WriteTo(w io.Writer) (int64, error) {
	const chunk = 32 << 10 // written out whenever a family leaves this much
	var total int64
	b := make([]byte, 0, 2*chunk)
	for _, f := range e.families {
		if len(b) >= chunk {
			n, err := w.Write(b)
			if total += int64(n); err != nil {
				return total, err
			}
			b = b[:0]
		}
		b = append(b, "# HELP "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, escapeHelp(f.help)...)
		b = append(b, "\n# TYPE "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, f.typ...)
		b = append(b, '\n')
		for _, s := range f.samples {
			b = append(b, f.name...)
			b = append(b, s.suffix...)
			b = appendLabels(b, s.labels, s.le)
			b = append(b, ' ')
			b = appendFloat(b, s.value)
			b = append(b, '\n')
		}
	}
	n, err := w.Write(b)
	return total + int64(n), err
}

// SortSeries orders each family's series by label values so map-fed
// families (per-route metrics) render deterministically. A histogram
// series' samples (bucket/sum/count) move as one group, so exposition
// validity is preserved; the sort is stable and each series' key is
// computed once.
func (e *Exposition) SortSeries() {
	for _, f := range e.families {
		size := 1
		if f.typ == "histogram" {
			size = NumHistBuckets + 2
		}
		n := len(f.samples) / size
		if n < 2 || len(f.samples)%size != 0 {
			continue // one series, or mixed construction: leave as inserted
		}
		keys := make([]string, n)
		order := make([]int, n)
		for g := range order {
			order[g] = g
			keys[g] = labelKey(f.samples[g*size].labels)
		}
		slices.SortStableFunc(order, func(a, b int) int { return strings.Compare(keys[a], keys[b]) })
		out := make([]promSample, 0, len(f.samples))
		for _, g := range order {
			out = append(out, f.samples[g*size:(g+1)*size]...)
		}
		f.samples = out
	}
}

// labelKey is a series' sort key: each label as name=value, in order.
func labelKey(ls Labels) string {
	n := 0
	for _, l := range ls {
		n += len(l.Name) + len(l.Value) + 2
	}
	var b strings.Builder
	b.Grow(n)
	for _, l := range ls {
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}

// appendLabels renders a label set, then le when it is set.
func appendLabels(b []byte, ls Labels, le string) []byte {
	if len(ls) == 0 && le == "" {
		return b
	}
	b = append(b, '{')
	for i, l := range ls {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Name...)
		b = append(b, `="`...)
		b = append(b, escapeLabelValue(l.Value)...)
		b = append(b, '"')
	}
	if le != "" {
		if len(ls) > 0 {
			b = append(b, ',')
		}
		b = append(b, `le="`...)
		b = append(b, le...)
		b = append(b, '"')
	}
	return append(b, '}')
}

// escapeLabelValue applies the text-format escaping rules for label
// values: backslash, double-quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp applies the text-format escaping rules for HELP text:
// backslash and newline (quotes are legal there).
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatFloat renders a sample value the way Prometheus expects:
// shortest round-trip representation, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string { return string(appendFloat(nil, v)) }

// appendFloat appends formatFloat(v) to b.
func appendFloat(b []byte, v float64) []byte {
	switch {
	case v != v:
		return append(b, "NaN"...)
	case v > 1.7976931348623157e308:
		return append(b, "+Inf"...)
	case v < -1.7976931348623157e308:
		return append(b, "-Inf"...)
	}
	// 'g' can produce exponents like "1e+06"; that is valid text format.
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
