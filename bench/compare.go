package main

import (
	"fmt"
	"os"
	"sort"
)

// compare prints, for every workload and metric two result files share,
// both values, the relative change and the metric's bound, and marks the
// end-to-end metrics that got worse by more than their bound. It returns
// 1 if any did, which is what the run-to-run acceptance check tests.
func compare(pathA, pathB string) int {
	def, err := loadBenchDef()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, err := readResultFile(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readResultFile(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("a: %s  commit %s  %s  nproc %d\nb: %s  commit %s  %s  nproc %d\n",
		pathA, a.Env.Commit, a.Env.GoVersion, a.Env.Nproc, pathB, b.Env.Commit, b.Env.GoVersion, b.Env.Nproc)
	outside := compareSection("end-to-end", def.EndToEnd, a.EndToEnd, b.EndToEnd, true)
	compareSection("per-layer", def.PerLayer, a.PerLayer, b.PerLayer, false)
	if outside > 0 {
		fmt.Printf("%d end-to-end metrics are worse in b by more than their bound\n", outside)
		return 1
	}
	return 0
}

// compareSection returns how many bounded metrics are worse in b than in
// a by more than their bound.
func compareSection(title string, defs []metricDef, a, b map[string]*result, bounded bool) int {
	names := make([]string, 0, len(a))
	for name := range a {
		if b[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	outside := 0
	for _, name := range names {
		ra, rb := a[name], b[name]
		fmt.Printf("\n%s, %s (failed %d/%d and %d/%d)\n", title, name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
		fmt.Printf("  %-30s %14s %14s %9s %7s\n", "metric", "a", "b", "change", "bound")
		for _, d := range defs {
			va, okA := ra.Metrics[d.Name]
			vb, okB := rb.Metrics[d.Name]
			if !okA || !okB {
				continue
			}
			change := 0.0
			if va.Value != 0 {
				change = (vb.Value - va.Value) / va.Value
			}
			worse := change
			if d.Better == "higher" {
				worse = -change
			}
			line := fmt.Sprintf("  %-30s %14.6g %14.6g %+8.2f%%", d.Name, va.Value, vb.Value, 100*change)
			if bounded {
				line += fmt.Sprintf(" %6.0f%%", 100*d.Bound)
				spread := max(passSpread(va), passSpread(vb))
				switch {
				case worse > d.Bound && spread > d.Bound:
					line += "  UNRESOLVED: the passes of a run spread wider than the bound"
					outside++
				case worse > d.Bound:
					line += "  WORSE"
					outside++
				}
			}
			fmt.Println(line)
		}
		if rb.Failed > 0 {
			fmt.Printf("  b has %d failed operations\n", rb.Failed)
			outside++
		}
	}
	return outside
}

func passSpread(v metricValue) float64 {
	if len(v.PerPass) < 2 || v.Value == 0 {
		return 0
	}
	return v.IQR / v.Value
}
