package telemetry

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// WritePrometheusFile is WritePrometheus into a new file at path — what
// every -metrics-out flag does.
func WritePrometheusFile(path string, s *Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WritePrometheus(f, s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE headers, cumulative le buckets
// with +Inf, _sum and _count series for histograms. Output is fully
// deterministic: families and metrics arrive sorted from the snapshot and
// floats render with strconv's shortest representation.
func WritePrometheus(w io.Writer, s *Snapshot) error {
	if s == nil {
		return nil
	}
	for _, f := range s.Families {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.Name, escapeHelp(f.Help), f.Name, f.Type); err != nil {
			return err
		}
		for _, m := range f.Metrics {
			if f.Type != "histogram" {
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.Name, renderLabels(m.Labels), formatFloat(m.Value)); err != nil {
					return err
				}
				continue
			}
			var cum uint64
			for i, upper := range f.Uppers {
				cum += bucketAt(m.Buckets, i)
				if err := writeBucket(w, f.Name, m.Labels, formatFloat(upper), cum); err != nil {
					return err
				}
			}
			cum += bucketAt(m.Buckets, len(f.Uppers))
			if err := writeBucket(w, f.Name, m.Labels, "+Inf", cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.Name, renderLabels(m.Labels), formatFloat(m.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.Name, renderLabels(m.Labels), m.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

func bucketAt(buckets []uint64, i int) uint64 {
	if i < len(buckets) {
		return buckets[i]
	}
	return 0
}

func writeBucket(w io.Writer, name string, labels []Label, le string, cum uint64) error {
	withLE := make([]Label, 0, len(labels)+1)
	withLE = append(withLE, labels...)
	withLE = append(withLE, Label{"le", le})
	_, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(withLE), cum)
	return err
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
