package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"farron/internal/engine"
	"farron/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json (TestGolden) or testdata/seeds.json (TestSeedTable)")

// smallSizes shrink every workload so that each finishes in well under a
// second.
func smallSizes() sizes {
	return sizes{
		scale:      engine.QuickScale(),
		quick:      engine.QuickScale(),
		fleetCPUs:  200_000,
		serveCPUs:  20_000,
		serveSteps: 4,
		panels: map[string]int{
			"paper-report": 2, "fleet-sweep": 2, "serve-campaigns": 2, "cluster-cold": 2, "cache-warm": 2,
		},
		repeats:    1,
		replayCPUs: 50,
	}
}

// testPMU opens the hardware counters once for every test. Where the host
// has none the tests run without them and cycle and instruction counts
// read 0.
var testPMU = sync.OnceValues(openPMU)

func testConfig(t *testing.T, sz sizes, trace bool) config {
	_, denied, err := embeddedInputs()
	if err != nil {
		t.Fatal(err)
	}
	counters, err := testPMU()
	if err != nil {
		t.Logf("running without hardware counters: %v", err)
	}
	return config{seed: 1, seconds: 1, trace: trace, workdir: t.TempDir(), sizes: sz, denied: denied, passes: 1, pmu: counters}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloadSpecs {
		names = append(names, w.Name)
	}
	return names
}

// checkEmitted asserts that res carries exactly the metrics of specs, each
// with its unit and a finite value.
func checkEmitted(t *testing.T, label string, res *result, specs []metricSpec) {
	t.Helper()
	if len(res.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics emitted, want %d", label, len(res.Metrics), len(specs))
	}
	for _, s := range specs {
		v, ok := res.Metrics[s.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", label, s.Name)
		case v.Unit != s.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", label, s.Name, v.Unit, s.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: metric %s = %v", label, s.Name, v.Value)
		}
	}
}

// TestSmoke runs every workload for one round at reduced size, untraced,
// and one traced, and checks that every metric is emitted with its unit
// and that no op failed.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		var out bytes.Buffer
		cfg := testConfig(t, smallSizes(), false)
		res, err := runWorkloads(cfg, []string{name}, &out)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failed != 0 || !res.Correct || res.Attempted < 2 {
			t.Errorf("%s: attempted %d, failed %d, correct %v\n%s", name, res.Attempted, res.Failed, res.Correct, out.String())
		}
		checkEmitted(t, name, res, endToEndSpecs)
		if res.Metrics["setup_s"].Value <= 0 || res.Metrics["alloc_mb_per_op"].Value <= 0 {
			t.Errorf("%s: non-positive set-up time or allocation in %v", name, res.Metrics)
		}
		if cfg.pmu != nil && res.Metrics["op_minstr"].Value <= 0 {
			t.Errorf("%s: hardware counters open but no instructions counted: %v", name, res.Metrics)
		}
	}

	cfg := testConfig(t, smallSizes(), true)
	var out bytes.Buffer
	res, err := runWorkloads(cfg, []string{"paper-report"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("traced run: %d failed\n%s", res.Failed, out.String())
	}
	checkEmitted(t, "traced", res, perLayerSpecs)
	if res.Metrics["exp.lifecycle.s"].Value <= 0 || res.Metrics["exp.self_frac"].Value <= 0 {
		t.Errorf("traced run attributes no time to experiments: %v", res.Metrics)
	}
	b, err := os.ReadFile(filepath.Join(cfg.workdir, "spans-paper-report.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans map[string][]span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans["workload"]) == 0 || len(spans["probes"]) == 0 {
		t.Errorf("span file holds %d workload and %d probe spans", len(spans["workload"]), len(spans["probes"]))
	}
}

// TestCorruptGoldenFailsEveryOp proves the output checks are live: with a
// wrong golden digest for every output a workload checks, every op fails.
func TestCorruptGoldenFailsEveryOp(t *testing.T) {
	for _, name := range workloadNames() {
		cfg := testConfig(t, smallSizes(), false)
		b := newBench(cfg, name)
		if err := workloadRuns[name](b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.failed != 0 || len(b.seen) == 0 {
			t.Fatalf("%s: clean run failed %d ops and checked %d outputs", name, b.failed, len(b.seen))
		}
		cfg.golden = make(map[string]string)
		for k := range b.seen {
			cfg.golden[k] = strings.Repeat("0", 64)
		}
		b = newBench(cfg, name)
		if err := workloadRuns[name](b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.failed != b.attempted {
			t.Errorf("%s: corrupted goldens failed %d of %d ops", name, b.failed, b.attempted)
		}
	}
}

// TestGolden rewrites testdata/golden.json (go test -run TestGolden
// -update) from the output of every workload on every panel seed at full
// size, after checking seed 1's paper report against the committed
// bench_report.txt. Without -update it skips: every benchmark run checks
// its outputs against the goldens.
func TestGolden(t *testing.T) {
	if !*update {
		t.Skip("regenerates the goldens; run with -update")
	}
	got := make(map[string]string)
	for _, name := range workloadNames() {
		cfg := testConfig(t, fullSizes(), false)
		b := newBench(cfg, name)
		if err := workloadRuns[name](b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.failed != 0 {
			t.Fatalf("%s: %d ops failed", name, b.failed)
		}
		held := "/" + strconv.FormatUint(b.heldOut, 10)
		for k, d := range b.seen {
			if !strings.Contains(k+"/", held+"/") {
				got[k] = d
			}
		}
	}
	report, err := os.ReadFile("../../bench_report.txt")
	if err != nil {
		t.Fatal(err)
	}
	if want := digest(report); got["report/1"] != want {
		t.Fatalf("paper report of seed 1 has digest %s, bench_report.txt %s", got["report/1"], want)
	}
	b, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/golden.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSeedTable rewrites testdata/seeds.json (go test -run TestSeedTable
// -update) by running the registry on every seed up to seedSpace, which
// takes minutes. Without -update it skips: a denied seed that stopped
// failing only shrinks the panels' choice, and a newly failing panel seed
// fails every benchmark run.
func TestSeedTable(t *testing.T) {
	if !*update {
		t.Skip("regenerates the seed table; run with -update")
	}
	exps := experiments.Registry()
	table := seedTable{Space: seedSpace, Denied: []uint64{}}
	for s := uint64(1); s <= seedSpace; s++ {
		if _, _, err := engine.NewRunner(engine.RunOptions{Seed: s, Workers: 2}).Run(exps, engine.QuickScale()); err != nil {
			table.Denied = append(table.Denied, s)
		}
	}
	b, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/seeds.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..10 = %g, want %g (nearest rank)", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{3}, 90); got != 3 {
		t.Errorf("p90 of one sample = %g", got)
	}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g, %g; statistics.quantiles gives 2.75, 8.25", q1, q3)
	}
}

// TestReportableTail checks that no printed tail percentile has fewer than
// ten samples beyond it.
func TestReportableTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{9, 0, false}, {99, 0, false}, {100, 90, true}, {199, 90, true}, {200, 95, true}, {1000, 99, true}, {10000, 99.9, true}} {
		p, ok := reportableTail(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("reportableTail(%d) = %g, %v; want %g, %v", c.n, p, ok, c.want, c.ok)
		}
	}
	for n := 1; n <= 5000; n++ {
		if p, ok := reportableTail(n); ok && n-nearestRank(n, p) < 10 {
			t.Fatalf("n=%d: p%g has %d samples beyond it", n, p, n-nearestRank(n, p))
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json; unknown keys are an error.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json and the compiled-in
// table equal, and both within the benchmark format's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Paths, []string{"cmd/sdcperf"}) || f.RunSeconds != runSeconds {
		t.Errorf("paths %v, run_seconds %d; want [cmd/sdcperf], %d", f.Paths, f.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(f.Workloads, workloadSpecs) {
		t.Errorf("workloads differ:\nBENCHMARK.json %v\nsdcperf        %v", f.Workloads, workloadSpecs)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEndSpecs) {
		t.Errorf("end_to_end metrics differ:\nBENCHMARK.json %v\nsdcperf        %v", f.EndToEnd, endToEndSpecs)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayerSpecs) {
		t.Errorf("per_layer metrics differ:\nBENCHMARK.json %v\nsdcperf        %v", f.PerLayer, perLayerSpecs)
	}
	if len(f.PerLayer) > 128 || len(raw) > 64<<10 {
		t.Errorf("%d per-layer metrics, %d bytes", len(f.PerLayer), len(raw))
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if workloadRuns[w.Name] == nil {
			t.Errorf("workload %s has no run", w.Name)
		}
	}
	if len(workloadRuns) != len(f.Workloads) {
		t.Errorf("%d workload runs, %d workloads", len(workloadRuns), len(f.Workloads))
	}
	largest := 0.0
	for _, m := range append(append([]metricSpec{}, f.EndToEnd...), f.PerLayer...) {
		names = append(names, m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		largest = max(largest, m.Bound)
	}
	// A gate looser than 10% lets a real slowdown through; a metric too
	// noisy for that belongs among the printed, ungated numbers. setup_s,
	// the one wall-clock time the format requires, may take up to the
	// format's 25%.
	for _, m := range f.EndToEnd {
		limit := 0.1
		if m.Name == "setup_s" {
			limit = 0.25
		}
		if m.Bound <= 0 || m.Bound > limit {
			t.Errorf("metric %s: bound %g outside (0, %g]", m.Name, m.Bound, limit)
		}
	}
	for _, n := range names {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	setup := f.EndToEnd[len(f.EndToEnd)-1]
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" || setup.Bound != largest {
		t.Errorf("setup_s must be a lower-is-better metric in s with a bound no other exceeds, got %+v", setup)
	}
	if !reflect.DeepEqual(f.Command, []string{"bash", "cmd/sdcperf/run.sh"}) {
		t.Errorf("command %q, want bash cmd/sdcperf/run.sh", f.Command)
	}
}
