// Command bench is the repository's benchmark: four workloads, each
// oracle-checked, reporting the end-to-end metrics a user of the library,
// the server or the cold tier would see (--trace 0) or the per-layer
// ladder that attributes them (--trace 1). BENCHMARK.json at the root of
// the repository declares the metrics; README.md explains them.
//
//	go run -C bench . --workload audio-hot --seed 1 --seconds 15 --trace 0
//	go run -C bench . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// passes fixes the number of timed passes; 0 runs passes until
	// seconds have been measured.
	passes int
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	out    string
	spans  string
	// small runs the workload at smoke-test size.
	small bool
	// work is the run's scratch directory, removed when the run ends.
	work string
	cal  *calibrator
}

// metricValue is one reported metric. PerPass holds the per-pass values
// a time metric's median was taken over, IQR their quartile distance, and
// Raw the same median before calibration (see calibrate.go).
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	PerPass []float64 `json:"per_pass,omitempty"`
	IQR     float64   `json:"iqr,omitempty"`
	Raw     float64   `json:"raw,omitempty"`
}

// result is what one run of one workload produced.
type result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Traced    bool    `json:"traced"`
	Passes    int     `json:"passes"`
	Clients   int     `json:"clients"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// SearchSamples is the number of latencies search_p95_ms pools.
	SearchSamples int                    `json:"search_samples"`
	Metrics       map[string]metricValue `json:"metrics"`
	// Checks are the values that must hold rather than improve:
	// failed_share, coldtier.fallbacks, server.shed_share.
	Checks   map[string]float64 `json:"checks"`
	Failures []string           `json:"failures,omitempty"`
	Warnings []string           `json:"warnings,omitempty"`
	Spans    []spanTotal        `json:"spans,omitempty"`
}

func newResult(cfg config, clients int) *result {
	return &result{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		Clients: clients, Metrics: map[string]metricValue{}, Checks: map[string]float64{},
	}
}

func (r *result) set(name string, v float64) { r.Metrics[name] = metricValue{Value: v} }

// setPasses reports the median of a metric's per-pass values and keeps
// the values and their spread beside it.
func (r *result) setPasses(name string, perPass []float64) {
	r.Metrics[name] = metricValue{Value: median(perPass), PerPass: perPass, IQR: iqr(perPass)}
}

// setTimed is setPasses for a time metric: each pass's raw value is
// multiplied by the speed factor of the box during that pass.
func (r *result) setTimed(name string, raw, factors []float64) {
	calibrated := make([]float64, len(raw))
	for i := range raw {
		calibrated[i] = raw[i] * factors[i]
	}
	r.setPasses(name, calibrated)
	v := r.Metrics[name]
	v.Raw = median(raw)
	r.Metrics[name] = v
}

// maxFailures bounds the failure descriptions kept; the count is exact.
const maxFailures = 10

func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < maxFailures {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// conform keeps exactly the metrics BENCHMARK.json declares for this
// mode, stamps their units, and reports any the run did not produce.
func (r *result) conform(defs []metricDef) error {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		v.Unit = d.Unit
		out[d.Name] = v
	}
	var extra []string
	for name := range r.Metrics {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metrics out of step with %s: missing %v, undeclared %v", benchDefPath, missing, extra)
	}
	r.Metrics = out
	return nil
}

// environment is written into the result file so two files can be told
// apart by where they were measured.
type environment struct {
	Nproc      int    `json:"nproc"`
	Gomaxprocs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{Nproc: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit}
}

// resultFile accumulates runs: one entry per workload and mode, so the
// four untraced and four traced runs of a commit share one file.
type resultFile struct {
	Env       environment        `json:"env"`
	EndToEnd  map[string]*result `json:"end_to_end"`
	PerLayer  map[string]*result `json:"per_layer"`
	UpdatedAt string             `json:"updated_at"`
}

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func mergeIntoResultFile(path string, r *result) error {
	f, err := readResultFile(path)
	if os.IsNotExist(err) {
		f, err = &resultFile{}, nil
	}
	if err != nil {
		return err
	}
	if f.EndToEnd == nil {
		f.EndToEnd = map[string]*result{}
	}
	if f.PerLayer == nil {
		f.PerLayer = map[string]*result{}
	}
	f.Env = currentEnvironment()
	f.UpdatedAt = time.Now().UTC().Format(time.RFC3339)
	if r.Traced {
		f.PerLayer[r.Workload] = r
	} else {
		f.EndToEnd[r.Workload] = r
	}
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// run executes one workload and returns its result; the error return is
// for runs that could not be measured at all, wrong answers are counted
// in the result.
func run(cfg config, def *benchDef) (*result, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.small {
		w = w.small()
	}
	if err := os.MkdirAll(".work", 0o755); err != nil {
		return nil, err
	}
	if cfg.work, err = os.MkdirTemp(".work", "run-*"); err != nil {
		return nil, err
	}
	defer func() {
		os.RemoveAll(cfg.work)
		os.Remove(".work") // succeeds only once no other run is using it
	}()
	cfg.cal = newCalibrator()

	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}
	var res *result
	switch {
	case w.serve:
		res, err = runServe(w, cfg, rec)
	default:
		res, err = runInproc(w, cfg, rec)
	}
	if err != nil {
		return nil, err
	}
	if rec != nil {
		res.Spans = rec.totals()
		if cfg.spans != "" {
			if err := rec.writeFile(cfg.spans); err != nil {
				return nil, err
			}
		}
	}
	res.Checks["failed_share"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	if err := res.conform(def.metrics(cfg.traced)); err != nil {
		return nil, err
	}
	res.warnOnSpread(def)
	return res, nil
}

// warnOnSpread labels a run whose passes disagree by more than a
// metric's bound: a comparison against it is unresolved, not a
// regression.
func (r *result) warnOnSpread(def *benchDef) {
	for _, d := range def.EndToEnd {
		v, ok := r.Metrics[d.Name]
		if !ok || len(v.PerPass) < 2 || v.Value == 0 {
			continue
		}
		if share := v.IQR / v.Value; share > d.Bound {
			r.Warnings = append(r.Warnings, fmt.Sprintf(
				"%s: passes spread %.1f%% of the median, wider than its %.0f%% bound; treat comparisons as unresolved",
				d.Name, 100*share, 100*d.Bound))
		}
	}
}

func (r *result) print(defs []metricDef) {
	fmt.Printf("workload %s  seed %d  traced %v  passes %d  clients %d  search samples %d\n",
		r.Workload, r.Seed, r.Traced, r.Passes, r.Clients, r.SearchSamples)
	for _, d := range defs {
		v := r.Metrics[d.Name]
		line := fmt.Sprintf("  %-34s %14.6g %-6s (%s is better)", d.Name, v.Value, v.Unit, d.Better)
		if v.Raw != 0 {
			line += fmt.Sprintf("  raw %.6g", v.Raw)
		}
		if len(v.PerPass) > 0 {
			line += fmt.Sprintf("  per pass %.6g  iqr %.3g", v.PerPass, v.IQR)
		}
		fmt.Println(line)
	}
	checks := make([]string, 0, len(r.Checks))
	for name := range r.Checks {
		checks = append(checks, name)
	}
	sort.Strings(checks)
	for _, name := range checks {
		fmt.Printf("  check %-28s %14.6g\n", name, r.Checks[name])
	}
	if len(r.Spans) > 0 {
		fmt.Println("  spans (count, total ms, self ms):")
		for _, s := range r.Spans {
			fmt.Printf("    %-24s %7d %12.3f %12.3f\n", s.Name, s.Count, s.TotalMs, s.SelfMs)
		}
	}
	for _, f := range r.Failures {
		fmt.Println("  FAILED:", f)
	}
	for _, w := range r.Warnings {
		fmt.Println("  WARNING:", w)
	}
}

// summary is the last line of standard output, the shape the benchmark
// contract fixes.
func (r *result) summary() string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(r.Metrics))
	for name, v := range r.Metrics {
		metrics[name] = metric{v.Value, v.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	return string(line)
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var cfg config
	var traceFlag int
	compareMode := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	flag.StringVar(&cfg.workload, "workload", "audio-hot", "audio-hot, uniform-hot, serve-mixed or audio-cold")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated points, queries and op schedule")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "seconds to measure (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&traceFlag, "trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics")
	flag.IntVar(&cfg.passes, "passes", 0, "run exactly this many timed passes instead of measuring for -seconds")
	flag.StringVar(&cfg.out, "out", "", "result file to merge this run into (relative to bench/)")
	flag.StringVar(&cfg.spans, "spans", "", "file a traced run writes its spans to (relative to bench/)")
	flag.Parse()

	if *compareMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.json b.json")
			return 2
		}
		return compare(flag.Arg(0), flag.Arg(1))
	}

	def, err := loadBenchDef()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(def.RunSeconds)
	}
	cfg.traced = traceFlag != 0
	cfg.setups = 3
	if cfg.traced {
		cfg.setups = 1
	}
	res, err := run(cfg, def)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	res.print(def.metrics(cfg.traced))
	if cfg.out != "" {
		if err := mergeIntoResultFile(cfg.out, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	fmt.Println(res.summary())
	if res.Failed > 0 {
		return 1
	}
	return 0
}
