// Command sdcperf is the repository's benchmark. It drives five workloads
// in one process by calling each layer's public functions (engine, fleet,
// serve, cache, cluster, wire) from outside the program, checks every
// output against golden digests or against an earlier output of the same
// inputs, and prints every metric by name with its unit. The last line of
// its output is one JSON object:
//
//	{"correct": true, "attempted": 98, "failed": 0, "metrics": {"op_minstr": {"value": 4947.5, "unit": "Minstr"}, ...}}
//
// An untraced run reports the end-to-end metrics; a traced run (-trace 1)
// reports the per-layer metrics and writes its spans to the work directory.
// Ops are measured in instructions and CPU cycles from Linux's hardware
// performance counters; where those cannot be opened the benchmark exits
// with an error.
// BENCHMARK.json at the repository root lists both, and README.md here
// describes the workloads and metrics.
//
// Usage, from the repository root (run.sh builds the benchmark first):
//
//	bash cmd/sdcperf/run.sh -workload paper-report|fleet-sweep|serve-campaigns|cluster-cold|cache-warm|all [-seed n] [-seconds s] [-trace 0|1]
//	bash cmd/sdcperf/run.sh -compare a.jsonl b.jsonl
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"farron/internal/engine/wallclock"
)

//go:embed testdata/golden.json
var goldenJSON []byte

//go:embed testdata/seeds.json
var seedsJSON []byte

// seedTable is testdata/seeds.json: the simulation seeds up to seedSpace on
// which some registry entry fails.
type seedTable struct {
	Space  uint64   `json:"space"`
	Denied []uint64 `json:"denied"`
}

// embeddedInputs decodes the golden digests and the denied seeds.
func embeddedInputs() (golden map[string]string, denied map[uint64]bool, err error) {
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return nil, nil, fmt.Errorf("golden digests: %w", err)
	}
	var t seedTable
	if err := json.Unmarshal(seedsJSON, &t); err != nil {
		return nil, nil, fmt.Errorf("seed table: %w", err)
	}
	if t.Space != seedSpace {
		return nil, nil, fmt.Errorf("seed table covers %d seeds, want %d", t.Space, seedSpace)
	}
	denied = make(map[uint64]bool, len(t.Denied))
	for _, s := range t.Denied {
		denied[s] = true
	}
	return golden, denied, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is main with its output stream and exit code explicit; diagnostics
// go to standard error.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("sdcperf", flag.ContinueOnError)
	var names []string
	for _, w := range workloadSpecs {
		names = append(names, w.Name)
	}
	valid := strings.Join(names, ", ") + ", or all"
	workload := fs.String("workload", "", "workload to run: "+valid)
	seed := fs.Uint64("seed", 1, "run seed: orders the visits to the seed panel and picks the held-out seed")
	seconds := fs.Float64("seconds", runSeconds, "seconds each workload measures for")
	trace := fs.Int("trace", 0, "1 for a traced run: per-layer metrics, spans written to the work directory")
	workdir := fs.String("workdir", ".bench_build/sdcperf", "directory for result caches and span files")
	compare := fs.Bool("compare", false, "compare two run sets: -compare a.jsonl b.jsonl (lines written by collect.sh)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout)
	}
	if *workload != "all" {
		names = []string{*workload}
	}
	if _, ok := workloadRuns[names[0]]; !ok || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "sdcperf: need -workload ("+valid+"), -seconds > 0 and -trace 0 or 1")
		fs.Usage()
		return 2
	}
	golden, denied, err := embeddedInputs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdcperf:", err)
		return 1
	}
	counters, err := openPMU()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdcperf:", err)
		return 1
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "sdcperf:", err)
		return 1
	}
	cfg := config{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		workdir: *workdir,
		sizes:   fullSizes(),
		golden:  golden,
		denied:  denied,
		pmu:     counters,
	}
	res, err := runWorkloads(cfg, names, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdcperf:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "sdcperf:", err)
		return 1
	}
	return 0
}

// result is the JSON object a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkloads runs the named workloads in order, printing each one's
// metrics to out, and returns the combined result. With one workload the
// metrics keep their names; with several each is prefixed with its
// workload's name.
func runWorkloads(cfg config, names []string, out io.Writer) (*result, error) {
	res := &result{Metrics: make(map[string]metricValue)}
	for _, name := range names {
		var report bytes.Buffer
		b := newBench(cfg, name)
		window := wallclock.Start()
		if err := workloadRuns[name](b); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		elapsed := window.Seconds()
		specs, values := endToEndSpecs, b.endToEnd()
		if cfg.trace {
			spans := b.tr.snapshot()
			specs, values = perLayerSpecs, make(map[string]float64)
			b.workloadLayers(values, spans)
			probes := b.probeLayers(values)
			path := filepath.Join(cfg.workdir, "spans-"+name+".json")
			if err := writeSpans(path, spans, probes); err != nil {
				return nil, err
			}
			fmt.Fprintf(&report, "spans: %s\n", path)
		}
		b.print(&report, elapsed, specs, values)
		if _, err := out.Write(report.Bytes()); err != nil {
			return nil, err
		}
		res.Attempted += b.attempted
		res.Failed += b.failed
		for _, s := range specs {
			key := s.Name
			if len(names) > 1 {
				key = name + "." + s.Name
			}
			v := values[s.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%s: metric %s is %v", name, s.Name, v)
			}
			res.Metrics[key] = metricValue{Value: v, Unit: s.Unit}
		}
	}
	res.Correct = res.Failed == 0
	if res.Attempted == 0 {
		return nil, errors.New("no op was attempted")
	}
	return res, nil
}

// endToEnd computes the gated metrics. Each takes every input's fastest
// op (or set-up) first: each input is run once per pass, and the fastest
// of those is the one a neighbour on the shared host did not slow down.
// The op metrics then average over the inputs, which steadies them more
// than their median does; setup_s takes the median.
func (b *bench) endToEnd() map[string]float64 {
	setupInputs := make([]int, len(b.setup))
	setupSecs := make([]float64, len(b.setup))
	for i, s := range b.setup {
		setupInputs[i], setupSecs[i] = s.input, s.seconds
	}
	return map[string]float64{
		"op_minstr":       fastestMean(b.ops, func(o opSample) float64 { return o.instructions / 1e6 }),
		"alloc_mb_per_op": fastestMean(b.ops, func(o opSample) float64 { return float64(o.allocs) / 1e6 }),
		"setup_s":         median(fastest(setupInputs, setupSecs)),
	}
}

// fastestMean is the mean over the inputs of ops of each input's smallest
// value of f. It is 0 for no ops.
func fastestMean(ops []opSample, f func(opSample) float64) float64 {
	inputs := make([]int, len(ops))
	values := make([]float64, len(ops))
	for i, o := range ops {
		inputs[i], values[i] = o.input, f(o)
	}
	best := fastest(inputs, values)
	if len(best) == 0 {
		return 0
	}
	total := 0.0
	for _, v := range best {
		total += v
	}
	return total / float64(len(best))
}

// print writes a workload's metrics, then its wall-clock op times, which
// are printed but not gated: the mean over inputs of each input's fastest
// op, and over all ops the quartiles, the median and the highest
// tail percentile with at least ten samples beyond it.
func (b *bench) print(out *bytes.Buffer, elapsed float64, specs []metricSpec, values map[string]float64) {
	inputs := make(map[int]bool)
	lat := make([]float64, len(b.ops))
	for i, o := range b.ops {
		inputs[o.input] = true
		lat[i] = o.seconds * 1e3
	}
	fmt.Fprintf(out, "%s: seed %d (held-out seed %d), %d ops attempted, %d failed, %d timed on %d inputs, %d set-up samples, %.1f s\n",
		b.name, b.cfg.seed, b.heldOut, b.attempted, b.failed, len(b.ops), len(inputs), len(b.setup), elapsed)
	for _, s := range specs {
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", s.Name, values[s.Name], s.Unit)
	}
	q1, q3 := quartiles(lat)
	fmt.Fprintf(out, "  not gated, wall time per op: fastest %.4g ms; all ops q1 %.4g ms, p50 %.4g ms, q3 %.4g ms",
		fastestMean(b.ops, func(o opSample) float64 { return o.seconds * 1e3 }), q1, percentile(lat, 50), q3)
	if p, ok := reportableTail(len(lat)); ok {
		fmt.Fprintf(out, ", p%g %.4g ms", p, percentile(lat, p))
	}
	fmt.Fprintf(out, " (%d samples)\n", len(lat))
}
