package main

// The benchmark's specification: its workloads and every metric it emits,
// with units, directions and regression bounds. BENCHMARK.json at the
// repository root restates this table for tools that do not read Go; the
// spec-drift test fails when the two disagree.

// runSeconds is how long one run measures by default (BENCHMARK.json
// run_seconds).
const runSeconds = 15

// workloadSpec names one workload and records why the benchmark has it.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec is one metric. Bound, set only on end-to-end metrics, is the
// share of the baseline median by which the metric may get worse before a
// change counts as a regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var workloadSpecs = []workloadSpec{
	{"paper-report", "the whole paper evaluation at 1M CPUs as sdcbench runs it, context build included; core, testkit and thermal dominate, no cache or wire"},
	{"fleet-sweep", "10M-CPU fleet screened once per strategy; fleet and simrand only, and silifuzz's serial EndRound sits beside three per-CPU strategies"},
	{"serve-campaigns", "sdcserve's 104 stepped campaigns at 1M CPUs; per-call engine and lifecycle-cohort costs that paper-report hides show here"},
	{"cluster-cold", "quick registry over two loopback cluster daemons into an empty cache; the only wire, cluster and cache-store traffic"},
	{"cache-warm", "quick registry rerun from a filled cache: all hits, no compute; cache load and suite fingerprint only"},
}

// endToEndSpecs are the gated metrics. An op's cost is gated in
// instructions retired, counted in user space over every thread of the
// process, not in wall-clock time or cycles: the benchmark host's
// neighbours move its clock rate and memory latency by 10 to 20% for
// minutes at a time, which moves wall time that much from run to run and
// cycles by up to 7%, while instructions move by under 1%. Wall time and
// cycles per op are printed beside them and reported by traced runs
// (op.wall_ms, op.mcycles). Instructions may get 10% worse and allocation
// 2%. setup_s is wall time, so it carries the largest bound, as the
// benchmark format asks of it.
var endToEndSpecs = []metricSpec{
	{"op_minstr", "Minstr", "lower", 0.1},
	{"alloc_mb_per_op", "MB", "lower", 0.02},
	{"setup_s", "s", "lower", 0.25},
}

// expProbeNames are the registry entries the per-layer table times one by
// one, keyed by metric stem; they carry most of paper-report's serial work.
// Every other entry is summed into exp.other.s.
var expProbeNames = []struct{ stem, entry string }{
	{"lifecycle", "Lifecycle"},
	{"table_4", "Table 4"},
	{"figure_11", "Figure 11"},
	{"ablation", "Ablation"},
	{"figure_4", "Figure 4"},
	{"observation_12", "Observation 12"},
	{"figure_8", "Figure 8"},
	{"table_1", "Table 1"},
	{"table_2", "Table 2"},
	{"section_4_1_attribution", "Section 4.1 attribution"},
}

// sweepStrategies are the screening strategies fleet-sweep runs, in
// fleet.Strategies order. They are spelled out so that a strategy added to
// the program is a deliberate change to the benchmark, not a silent one.
var sweepStrategies = []string{"farron", "baseline", "silifuzz", "ithica"}

// traceLayers are the span-name prefixes self time is attributed to.
var traceLayers = []string{"harness", "ctx", "engine", "exp", "render", "report", "fleet", "serve", "cache"}

// perLayerSpecs lists the metrics of a traced run. They have no bound.
var perLayerSpecs = buildPerLayerSpecs()

func buildPerLayerSpecs() []metricSpec {
	lower := func(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "lower"} }
	higher := func(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "higher"} }
	specs := []metricSpec{
		lower("engine.ctx_ms", "ms"),
		lower("testkit.new_suite_ms", "ms"),
		lower("defect.study_set_ms", "ms"),
		lower("testkit.calibrate_ms", "ms"),
		lower("testkit.fingerprint_us", "us"),
		lower("engine.run_w1_s", "s"),
		lower("engine.run_w2_s", "s"),
		higher("engine.speedup_w2", "x"),
		higher("engine.pool_busy_frac", "fraction"),
		lower("engine.critical_path_frac", "fraction"),
		lower("engine.write_ms", "ms"),
		lower("engine.run_overhead_us", "us"),
	}
	for _, e := range expProbeNames {
		specs = append(specs,
			lower("exp."+e.stem+".s", "s"),
			lower("exp."+e.stem+".alloc_mb", "MB"),
			lower("exp."+e.stem+".mallocs", "count"))
	}
	specs = append(specs,
		lower("exp.other.s", "s"),
		lower("render.ms", "ms"),
		lower("render.bytes", "bytes"),
		lower("core.lifecycle_step_us", "us"),
		lower("core.lifecycle_step_allocs", "count"),
		lower("core.planner_plan_us", "us"),
		lower("testkit.run_testcase_us", "us"),
		lower("testkit.run_testcase_allocs", "count"),
		lower("thermal.step_ns", "ns"),
		lower("simrand.norm_ns", "ns"),
		lower("simrand.poisson_ns", "ns"),
		lower("simrand.derive_ns", "ns"),
		higher("fleet.faulty_cpus", "count"),
	)
	for _, s := range sweepStrategies {
		specs = append(specs,
			lower("fleet."+s+".run_s", "s"),
			higher("fleet."+s+".detected", "count"),
			lower("fleet."+s+".escaped", "count"),
			lower("fleet."+s+".new_screen_us", "us"),
			lower("fleet."+s+".preproduction_us", "us"),
			lower("fleet."+s+".round_ns", "ns"),
			lower("fleet."+s+".end_round_us", "us"))
	}
	specs = append(specs,
		lower("serve.new_ms", "ms"),
		lower("serve.campaign_ms", "ms"),
		lower("serve.history_json_ms", "ms"),
		lower("cache.store_us", "us"),
		lower("cache.load_us", "us"),
		lower("cache.entry_bytes", "bytes"),
		lower("wire.encode_us", "us"),
		lower("wire.decode_us", "us"),
		lower("wire.frame_bytes", "bytes"),
		lower("cluster.entries_max_share", "fraction"),
		lower("cluster.run_s", "s"),
		lower("cluster.lost", "count"),
		lower("cluster.recomputed", "count"),
		lower("runtime.gc_cycles_per_op", "count"),
		lower("runtime.gc_pause_frac", "fraction"),
		lower("runtime.mallocs_per_op", "count"),
		lower("op.mcycles", "Mcycles"),
		lower("op.wall_ms", "ms"),
		higher("op.ipc", "instr/cycle"),
		lower("trace.overhead_frac", "fraction"),
		lower("trace.spans_per_op", "count"),
	)
	for _, l := range traceLayers {
		specs = append(specs, lower(l+".self_frac", "fraction"))
	}
	return specs
}
