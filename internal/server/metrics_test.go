package server

import (
	"fmt"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"brepartition/internal/wire"
)

// seriesLine matches one exposition sample: name{labels} value.
var seriesLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? [^ ]+$`)

// labelPair matches one well-formed label inside the braces.
var labelPair = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"$`)

// TestMetricsExposition scrapes /metrics over loopback after traced
// traffic and validates the Prometheus text format line by line: each
// metric declares HELP and TYPE exactly once, counters and the _total
// suffix imply each other, quantile series are summaries, and every
// histogram family carries _bucket/_sum/_count with a +Inf bucket.
func TestMetricsExposition(t *testing.T) {
	s := newTestServer(t, 500, Config{TraceSample: 1})
	queries := testPoints(4, 10, 63)
	for _, q := range queries {
		resp, body := s.postJSON(t, "/v1/search", wire.SearchRequest{Q: q, K: 3})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search status %d: %s", resp.StatusCode, body)
		}
	}

	hr, err := http.Get(s.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, hr)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", hr.StatusCode)
	}
	if ct := hr.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}

	types := map[string]string{}     // metric family -> declared TYPE
	helps := map[string]int{}        // metric family -> HELP count
	samples := map[string][]string{} // series name -> raw lines
	for ln, raw := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		switch {
		case strings.HasPrefix(raw, "# HELP "):
			name := strings.SplitN(strings.TrimPrefix(raw, "# HELP "), " ", 2)[0]
			helps[name]++
			if helps[name] > 1 {
				t.Errorf("line %d: duplicate HELP for %s", ln+1, name)
			}
		case strings.HasPrefix(raw, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(raw, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, raw)
			}
			if _, dup := types[fields[0]]; dup {
				t.Errorf("line %d: duplicate TYPE for %s", ln+1, fields[0])
			}
			types[fields[0]] = fields[1]
		case strings.HasPrefix(raw, "#"):
			// other comments are fine
		default:
			m := seriesLine.FindStringSubmatch(raw)
			if m == nil {
				t.Fatalf("line %d: malformed sample %q", ln+1, raw)
			}
			if m[2] != "" {
				for _, lp := range strings.Split(strings.Trim(m[2], "{}"), ",") {
					if !labelPair.MatchString(lp) {
						t.Errorf("line %d: malformed label %q in %q", ln+1, lp, raw)
					}
				}
			}
			samples[m[1]] = append(samples[m[1]], raw)
		}
	}

	// family strips the histogram/summary sample suffixes so each sample
	// maps back to its TYPE declaration.
	family := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if base != name {
				if typ := types[base]; typ == "histogram" || typ == "summary" {
					return base
				}
			}
		}
		return name
	}

	for name := range samples {
		fam := family(name)
		typ, ok := types[fam]
		if !ok {
			t.Errorf("series %s has no TYPE declaration", name)
			continue
		}
		if helps[fam] == 0 {
			t.Errorf("series %s has no HELP line", name)
		}
		// _total ⇔ counter, both directions (histogram _count/_sum and
		// summary components are exempt by the family mapping).
		if fam == name {
			if strings.HasSuffix(name, "_total") && typ != "counter" {
				t.Errorf("%s ends in _total but is TYPE %s", name, typ)
			}
			if typ == "counter" && !strings.HasSuffix(name, "_total") {
				t.Errorf("%s is TYPE counter but lacks the _total suffix", name)
			}
		}
	}

	// Quantile-labeled series must be summaries.
	for name, lines := range samples {
		for _, raw := range lines {
			if strings.Contains(raw, `quantile="`) && types[family(name)] != "summary" {
				t.Errorf("%s carries quantile labels but is TYPE %s", name, types[family(name)])
			}
		}
	}

	// Histogram families: every one present as samples carries _bucket,
	// _sum, and _count, and every label set has a +Inf bucket.
	for fam, typ := range types {
		if typ != "histogram" {
			continue
		}
		if len(samples[fam+"_bucket"]) == 0 && len(samples[fam+"_sum"]) == 0 {
			continue // declared but not yet populated
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if len(samples[fam+suf]) == 0 {
				t.Errorf("histogram %s missing %s samples", fam, suf)
			}
		}
		infSets := map[string]bool{}
		for _, raw := range samples[fam+"_bucket"] {
			if strings.Contains(raw, `le="+Inf"`) {
				infSets[stripLe(raw)] = true
			}
		}
		for _, raw := range samples[fam+"_bucket"] {
			if !infSets[stripLe(raw)] {
				t.Errorf("histogram %s label set %q has no +Inf bucket", fam, stripLe(raw))
			}
		}
	}

	// The request-duration histogram must exist after traced traffic,
	// with the total stage populated.
	want := fmt.Sprintf(`breserved_request_duration_seconds_count{collection=%q,stage="total"}`, wire.DefaultCollection)
	found := false
	for _, raw := range samples["breserved_request_duration_seconds_count"] {
		if strings.HasPrefix(raw, want) {
			found = true
		}
	}
	if !found {
		t.Errorf("no %s series after traced traffic", want)
	}
}

// stripLe removes the le label so bucket lines of one label set compare
// equal.
var leLabel = regexp.MustCompile(`le="[^"]*",?`)

func stripLe(raw string) string {
	name := strings.SplitN(raw, " ", 2)[0]
	return leLabel.ReplaceAllString(name, "")
}
