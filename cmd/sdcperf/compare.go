package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// runLine is one run of a run set, as collect.sh writes it: the workload
// and the result line the run printed (collect.sh also records the seed).
type runLine struct {
	Workload string `json:"workload"`
	Result   result `json:"result"`
}

// runCompare compares run set b against run set a. For every workload and
// end-to-end metric it prints both medians, how much worse b is as a share
// of a's median, the metric's bound, and each set's spread (interquartile
// range over median). It exits 1 when b is worse than a by more than a
// bound, when a spread exceeds its bound, or when a run failed an op.
func runCompare(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "sdcperf: -compare takes two run-set files")
		return 2
	}
	a, err := readRuns(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdcperf:", err)
		return 2
	}
	b, err := readRuns(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdcperf:", err)
		return 2
	}
	var out bytes.Buffer
	violations := compareSets(&out, a, b)
	if _, err := stdout.Write(out.Bytes()); err != nil {
		fmt.Fprintln(os.Stderr, "sdcperf:", err)
		return 2
	}
	if violations > 0 {
		return 1
	}
	return 0
}

// readRuns reads a run set, grouping results by workload.
func readRuns(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := make(map[string][]result)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for n := 1; sc.Scan(); n++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var l runLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		runs[l.Workload] = append(runs[l.Workload], l.Result)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return runs, nil
}

// compareSets writes the comparison table and returns the violation count.
func compareSets(out *bytes.Buffer, a, b map[string][]result) int {
	violations := 0
	for _, w := range workloadSpecs {
		ra, rb := a[w.Name], b[w.Name]
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		fa, fb := failedRuns(ra), failedRuns(rb)
		fmt.Fprintf(out, "%s: %d runs (%d failing) vs %d runs (%d failing)\n", w.Name, len(ra), fa, len(rb), fb)
		if len(ra) == 0 || len(rb) == 0 || fa+fb > 0 {
			violations++
			continue
		}
		fmt.Fprintf(out, "  %-16s %12s %12s %8s %6s %8s %8s\n", "metric", "median a", "median b", "worse", "bound", "spread a", "spread b")
		for _, m := range endToEndSpecs {
			va, vb := metricValues(ra, m.Name), metricValues(rb, m.Name)
			ma, mb := median(va), median(vb)
			worse := 0.0
			if ma != 0 {
				worse = (mb - ma) / ma
				if m.Better == "higher" {
					worse = -worse
				}
			}
			sa, sb := spread(va), spread(vb)
			verdict := ""
			if worse > m.Bound {
				verdict = "  WORSE"
			}
			if sa > m.Bound || sb > m.Bound {
				verdict += "  NOISY"
			}
			if verdict != "" {
				violations++
			}
			fmt.Fprintf(out, "  %-16s %12.6g %12.6g %+7.1f%% %5.0f%% %7.1f%% %7.1f%%%s\n",
				m.Name, ma, mb, 100*worse, 100*m.Bound, 100*sa, 100*sb, verdict)
		}
	}
	fmt.Fprintf(out, "%d violations\n", violations)
	return violations
}

// failedRuns counts runs that were not correct.
func failedRuns(rs []result) int {
	n := 0
	for _, r := range rs {
		if !r.Correct || r.Failed > 0 {
			n++
		}
	}
	return n
}

// metricValues collects one metric across runs.
func metricValues(rs []result, name string) []float64 {
	vs := make([]float64, 0, len(rs))
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			vs = append(vs, v.Value)
		}
	}
	return vs
}
