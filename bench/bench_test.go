package main

import (
	"encoding/json"
	"fmt"
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at smoke-test size, untraced and traced,
// and checks that each emits exactly the metrics BENCHMARK.json declares
// for that mode, under the declared units, with nothing failed.
func TestSmoke(t *testing.T) {
	def, err := loadBenchDef()
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(def.Workloads), len(workloads))
	}
	for _, w := range def.Workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", w.Name, traced), func(t *testing.T) { smoke(t, def, w.Name, traced) })
		}
	}
}

func smoke(t *testing.T, def *benchDef, workload string, traced bool) {
	cfg := config{workload: workload, seed: 2, seconds: 1, passes: 1, setups: 1, small: true, traced: traced}
	res, err := run(cfg, def)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Checks["failed_share"] != 0 || res.Attempted == 0 {
		t.Errorf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.Failures)
	}
	defs := def.metrics(traced)
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q is outside the contract's alphabet", d.Name)
		}
		if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
			t.Errorf("metric %s emitted=%v unit %q, want unit %q", d.Name, ok, v.Unit, d.Unit)
		}
	}
	// The last line of standard output must carry the same metrics.
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(res.summary()), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted != res.Attempted || len(line.Metrics) != len(defs) {
		t.Errorf("summary line %+v does not match the result", line)
	}
	if !traced {
		for _, d := range defs {
			if line.Metrics[d.Name].Value == 0 {
				t.Errorf("end-to-end metric %s is 0", d.Name)
			}
		}
	}
}

// TestQuartiles pins iqr to Python's statistics.quantiles(xs, n=4), which
// the acceptance check of the benchmark contract uses.
func TestQuartiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	if got := iqr([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}); got != 27.5 {
		t.Errorf("iqr = %v, want 27.5", got)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if got := iqr([]float64{3, 1, 2}); got != 2 {
		t.Errorf("iqr = %v, want 2", got)
	}
}

// TestSelfTime pins the span roll-up: a parent's self time is its
// duration less what its children cover, overlaps counted once.
func TestSelfTime(t *testing.T) {
	r := &recorder{spans: []span{
		{Name: "query", Parent: -1, StartNs: 0, EndNs: 100e6},
		{Name: "search", Parent: 0, StartNs: 10e6, EndNs: 50e6},
		{Name: "oracle", Parent: 0, StartNs: 40e6, EndNs: 70e6},
	}}
	for _, tot := range r.totals() {
		want := map[string]float64{"query": 40, "search": 40, "oracle": 30}[tot.Name]
		if tot.SelfMs != want {
			t.Errorf("%s self time %v ms, want %v", tot.Name, tot.SelfMs, want)
		}
	}
}
