package server

import (
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"xtreesim/internal/metrics"
)

// TestEscapeLabelValue pins the exposition-format escaping rules: the
// spec escapes exactly backslash, double quote and newline in label
// values; every other byte — tabs, control characters, UTF-8 — passes
// through verbatim.
func TestEscapeLabelValue(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"plain", "/v1/simulate", "/v1/simulate"},
		{"backslash", `c:\temp`, `c:\\temp`},
		{"quote", `say "hi"`, `say \"hi\"`},
		{"newline", "line1\nline2", `line1\nline2`},
		{"all three", "\\\"\n", `\\\"\n`},
		{"backslash before quote", `\"`, `\\\"`},
		{"tab untouched", "a\tb", "a\tb"},
		{"utf8 untouched", "λx→x", "λx→x"},
		{"carriage return untouched", "a\rb", "a\rb"},
		{"empty", "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := escapeLabelValue(tc.in); got != tc.want {
				t.Errorf("escapeLabelValue(%q) = %q, want %q", tc.in, got, tc.want)
			}
		})
	}
}

// TestWriteHistogramOrdering asserts the series layout the text format
// mandates: cumulative _bucket lines with le="+Inf" last, then _sum,
// then _count — labeled and unlabeled.
func TestWriteHistogramOrdering(t *testing.T) {
	h := metrics.NewHistogram(1e-6, 10, 10)
	for _, v := range []float64{0.0001, 0.002, 0.002, 0.5, 3} {
		h.Observe(v)
	}
	for _, labels := range []string{"", `phase="embed.separator"`} {
		var b strings.Builder
		writeHistogram(&b, "m", labels, h)
		lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
		if len(lines) < 3 {
			t.Fatalf("labels=%q: %d lines", labels, len(lines))
		}
		nb := len(lines) - 2
		var prev uint64
		for i, ln := range lines[:nb] {
			if !strings.HasPrefix(ln, "m_bucket{") {
				t.Fatalf("labels=%q line %d: want _bucket, got %q", labels, i, ln)
			}
			if labels != "" && !strings.Contains(ln, labels+",") {
				t.Fatalf("labels=%q missing from bucket line %q", labels, ln)
			}
			cnt, err := strconv.ParseUint(ln[strings.LastIndexByte(ln, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("parse %q: %v", ln, err)
			}
			if cnt < prev {
				t.Fatalf("bucket counts not cumulative: %q after %d", ln, prev)
			}
			prev = cnt
		}
		if !strings.Contains(lines[nb-1], `le="+Inf"`) {
			t.Fatalf("labels=%q: last bucket is %q, want le=\"+Inf\"", labels, lines[nb-1])
		}
		if !strings.Contains(lines[nb-1], " 5") {
			t.Fatalf("labels=%q: +Inf bucket %q should count all 5 observations", labels, lines[nb-1])
		}
		if !strings.HasPrefix(lines[nb], "m_sum") {
			t.Fatalf("labels=%q: want _sum after buckets, got %q", labels, lines[nb])
		}
		if !strings.HasPrefix(lines[nb+1], "m_count") || !strings.HasSuffix(lines[nb+1], " 5") {
			t.Fatalf("labels=%q: want _count 5 last, got %q", labels, lines[nb+1])
		}
	}
}

// TestMetricsGCCounters requires the runtime's GC series on /metrics to
// parse as counters and not to go down: across a forced collection the
// cycle count rises and the GC CPU time does not fall.
func TestMetricsGCCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	read := func() (cycles uint64, cpu float64) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		found := 0
		for _, line := range strings.Split(string(data), "\n") {
			name, value, _ := strings.Cut(line, " ")
			switch name {
			case "xtreesim_go_gc_cycles_total":
				cycles, err = strconv.ParseUint(value, 10, 64)
			case "xtreesim_go_gc_cpu_seconds_total":
				cpu, err = strconv.ParseFloat(value, 64)
				if err == nil && cpu < 0 {
					t.Fatalf("negative GC CPU time %q", line)
				}
			default:
				continue
			}
			if err != nil {
				t.Fatalf("unparsable %q: %v", line, err)
			}
			found++
		}
		if found != 2 {
			t.Fatalf("found %d of the 2 GC series", found)
		}
		return cycles, cpu
	}
	cycles0, cpu0 := read()
	runtime.GC()
	cycles1, cpu1 := read()
	if cycles1 <= cycles0 {
		t.Errorf("GC cycles %d after a forced collection, %d before", cycles1, cycles0)
	}
	if cpu1 < cpu0 {
		t.Errorf("GC CPU seconds fell from %g to %g", cpu0, cpu1)
	}
	t.Logf("GC cycles %d -> %d, GC CPU %gs -> %gs", cycles0, cycles1, cpu0, cpu1)
}
