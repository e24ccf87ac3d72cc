package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"farron/internal/core"
	"farron/internal/cpu"
	"farron/internal/defect"
	"farron/internal/engine"
	"farron/internal/engine/cache"
	"farron/internal/engine/cluster"
	"farron/internal/engine/wallclock"
	"farron/internal/engine/wire"
	"farron/internal/experiments"
	"farron/internal/fleet"
	"farron/internal/serve"
	"farron/internal/simrand"
	"farron/internal/testkit"
	"farron/internal/thermal"
)

// A traced run reports two kinds of per-layer metrics. The workload's own
// traced ops give the layers' shares of op time (self time per span
// layer), the runtime's collection cost per op and the tracing overhead.
// Then a fixed set of probes, the same on every workload, times each
// layer's public calls directly, so a layer's cost is known even on a
// workload that does not reach it.

// Probe sample counts for calls too cheap to time one at a time reliably
// in fewer.
const (
	ctxProbeRepeats   = 5
	callProbeRepeats  = 200
	microProbeBatches = 3
	lifecycleSteps    = 26
	serveProbeSteps   = 26
)

// workloadLayers derives the per-layer metrics of the workload's own ops.
func (b *bench) workloadLayers(m map[string]float64, spans []span) {
	var traced, untraced []opSample
	var gcCycles, gcPause, wall, cycles, instructions float64
	mallocs := make([]float64, 0, len(b.ops))
	for _, o := range b.ops {
		if o.traced {
			traced = append(traced, o)
		} else {
			untraced = append(untraced, o)
			cycles += o.cycles
			instructions += o.instructions
		}
		gcCycles += float64(o.gcCycles)
		gcPause += float64(o.gcPauseNs) / 1e9
		wall += o.seconds
		mallocs = append(mallocs, float64(o.mallocs))
	}
	m["runtime.gc_cycles_per_op"] = gcCycles / float64(max(len(b.ops), 1))
	m["runtime.gc_pause_frac"] = 0
	if wall > 0 {
		m["runtime.gc_pause_frac"] = gcPause / wall
	}
	m["runtime.mallocs_per_op"] = median(mallocs)
	opCycles := func(o opSample) float64 { return o.cycles }
	m["op.mcycles"] = fastestMean(untraced, opCycles) / 1e6
	m["op.wall_ms"] = fastestMean(untraced, func(o opSample) float64 { return o.seconds * 1e3 })
	m["op.ipc"] = 0
	if cycles > 0 {
		m["op.ipc"] = instructions / cycles
	}
	// Tracing costs CPU work, so its overhead is compared in cycles, which
	// the host's clock rate does not move.
	m["trace.overhead_frac"] = 0
	if u := fastestMean(untraced, opCycles); u > 0 && len(traced) > 0 {
		m["trace.overhead_frac"] = fastestMean(traced, opCycles)/u - 1
	}
	m["trace.spans_per_op"] = float64(len(spans)) / float64(max(len(traced), 1))
	tracedWall := 0.0
	for _, s := range spans {
		if s.Parent == noSpan {
			tracedWall += s.End - s.Start
		}
	}
	for l, share := range layerShares(spans, tracedWall) {
		m[l+".self_frac"] = share
	}
}

// prober runs the layer probes of a traced run.
type prober struct {
	b  *bench
	tr *tracer // records the probes' registry-entry spans
	m  map[string]float64
	// seed is the simulation seed every probe uses, the first of the
	// panel, so that probe metrics of different runs measure the same
	// inputs. ctx1 and ctx2 are its context at one and two workers;
	// sections are the paper-scale report the engine probe rendered.
	seed       uint64
	ctx1, ctx2 *engine.Ctx
	sections   []engine.Section
}

// probeLayers runs every probe, adding its metrics to m, and returns the
// spans the probes recorded. A probe that fails counts as a failed op.
func (b *bench) probeLayers(m map[string]float64) []span {
	p := &prober{b: b, tr: newTracer(), m: m, seed: b.panel[0]}
	p.tr.on.Store(true)
	p.ctx1 = engine.NewCtxWorkers(p.seed, 1)
	p.ctx2 = engine.NewCtxWorkers(p.seed, b.workers)
	for _, probe := range []struct {
		name string
		run  func() error
	}{
		{"context", p.probeContext},
		{"engine", p.probeEngine},
		{"core", p.probeCore},
		{"testkit", p.probeTestkit},
		{"micro", p.probeMicro},
		{"fleet", p.probeFleet},
		{"serve", p.probeServe},
		{"cache", p.probeCache},
		{"wire", p.probeWire},
		{"cluster", p.probeCluster},
	} {
		runtime.GC()
		b.attempted++
		if err := probe.run(); err != nil {
			b.fail(1, fmt.Errorf("%s probe: %w", probe.name, err))
		}
	}
	return p.tr.snapshot()
}

// timed runs fn and returns its wall time in seconds.
func timed(fn func()) float64 {
	start := wallclock.Start()
	fn()
	return start.Seconds()
}

// probeContext times the steps of context construction separately: the suite,
// the study set, calibration and the suite fingerprint every cached run
// pays, then a whole one-worker context.
func (p *prober) probeContext() error {
	var suite, study, calib, fp, whole []float64
	for r := 0; r < ctxProbeRepeats; r++ {
		rng := simrand.New(p.seed)
		var s *testkit.Suite
		suite = append(suite, timed(func() { s = testkit.NewSuite(rng) }))
		var profiles []*defect.Profile
		study = append(study, timed(func() { profiles = defect.StudySet(rng) }))
		calib = append(calib, timed(func() {
			for _, pr := range profiles {
				s.CalibrateProfile(pr)
			}
		}))
		fp = append(fp, timed(func() { s.Fingerprint() }))
		whole = append(whole, timed(func() { engine.NewCtxWorkers(p.seed, 1) }))
	}
	p.m["testkit.new_suite_ms"] = median(suite) * 1e3
	p.m["defect.study_set_ms"] = median(study) * 1e3
	p.m["testkit.calibrate_ms"] = median(calib) * 1e3
	p.m["testkit.fingerprint_us"] = median(fp) * 1e6
	p.m["engine.ctx_ms"] = median(whole) * 1e3
	return nil
}

// probeEngine runs the paper-scale registry at one and at two workers,
// both traced entry by entry so that their ratio, the measured speedup,
// carries the same tracing cost on both sides. The one-worker runs
// attribute serial time and allocations to experiments and to rendering;
// the two-worker runs show how busy the pool was.
func (p *prober) probeEngine() error {
	sc := p.b.cfg.sizes.scale
	traced := traceRegistry(experiments.Registry(), func() *tracer { return p.tr })
	var w1, w2, busy, crit []float64
	var roots []int
	expAlloc := make(map[string][]float64)
	expMallocs := make(map[string][]float64)
	renderBytes := 0.0
	for r := 0; r < p.b.cfg.sizes.repeats; r++ {
		runtime.GC()
		root := p.tr.begin("probe:engine.run_w1", noSpan)
		p.tr.under(root)
		serial, rep1, err := engine.NewRunnerCtx(p.ctx1, engine.RunOptions{}).Run(traced, sc)
		p.tr.end(root)
		if err != nil {
			return err
		}
		roots = append(roots, root)
		w1 = append(w1, rep1.WallSeconds)
		renderBytes = 0
		for _, e := range rep1.Experiments {
			expAlloc[e.Name] = append(expAlloc[e.Name], float64(e.AllocBytes)/1e6)
			expMallocs[e.Name] = append(expMallocs[e.Name], float64(e.Mallocs))
			renderBytes += float64(e.OutputBytes)
		}

		runtime.GC()
		root = p.tr.begin("probe:engine.run_w2", noSpan)
		p.tr.under(root)
		parallel, rep2, err := engine.NewRunnerCtx(p.ctx2, engine.RunOptions{}).Run(traced, sc)
		p.tr.end(root)
		if err != nil {
			return err
		}
		w2 = append(w2, rep2.WallSeconds)
		entries, longest := 0.0, 0.0
		for _, e := range rep2.Experiments {
			entries += e.WallSeconds
			longest = max(longest, e.WallSeconds)
		}
		busy = append(busy, entries/(float64(p.ctx2.Workers)*rep2.WallSeconds))
		crit = append(crit, longest/rep2.WallSeconds)

		d1, err := reportDigest(serial)
		if err != nil {
			return err
		}
		d2, err := reportDigest(parallel)
		if err != nil {
			return err
		}
		if d1 != d2 {
			return errors.New("reports at one and two workers differ")
		}
		p.sections = parallel
	}
	p.m["engine.run_w1_s"] = median(w1)
	p.m["engine.run_w2_s"] = median(w2)
	p.m["engine.speedup_w2"] = median(w1) / median(w2)
	p.m["engine.pool_busy_frac"] = median(busy)
	p.m["engine.critical_path_frac"] = median(crit)
	p.entryMetrics(roots, expAlloc, expMallocs)
	p.m["render.bytes"] = renderBytes

	var write []float64
	for i := 0; i < 20; i++ {
		var err error
		write = append(write, timed(func() { _, err = reportDigest(p.sections) }))
		if err != nil {
			return err
		}
	}
	p.m["engine.write_ms"] = median(write) * 1e3

	noop := make([]engine.Experiment, 3)
	for i := range noop {
		noop[i] = engine.Experiment{Name: fmt.Sprintf("no-op %d", i),
			Run: func(*engine.Ctx, engine.Scale) (engine.Result, error) { return textResult("ok"), nil }}
	}
	runner := engine.NewRunnerCtx(p.ctx2, engine.RunOptions{})
	overhead := make([]float64, 0, callProbeRepeats)
	for i := 0; i < callProbeRepeats; i++ {
		var err error
		overhead = append(overhead, timed(func() { _, _, err = runner.Run(noop, sc) }))
		if err != nil {
			return err
		}
	}
	p.m["engine.run_overhead_us"] = median(overhead) * 1e6
	return nil
}

// entryMetrics turns the one-worker runs' entry spans into per-experiment
// run time, render time and allocation metrics (medians over the runs).
func (p *prober) entryMetrics(roots []int, alloc, mallocs map[string][]float64) {
	stems := make(map[string]string, len(expProbeNames))
	for _, e := range expProbeNames {
		stems[e.entry] = e.stem
	}
	byRoot := make(map[int]int, len(roots))
	for i, r := range roots {
		byRoot[r] = i
	}
	runS := make(map[string][]float64)
	other := make([]float64, len(roots))
	render := make([]float64, len(roots))
	for _, s := range p.tr.snapshot() {
		i, ok := byRoot[s.Parent]
		if !ok {
			continue
		}
		d := s.End - s.Start
		if name, ok := strings.CutPrefix(s.Name, "exp:"); ok {
			if stem, ok := stems[name]; ok {
				runS[stem] = append(runS[stem], d)
			} else {
				other[i] += d
			}
		} else if strings.HasPrefix(s.Name, "render:") {
			render[i] += d
		}
	}
	for _, e := range expProbeNames {
		p.m["exp."+e.stem+".s"] = median(runS[e.stem])
		p.m["exp."+e.stem+".alloc_mb"] = median(alloc[e.entry])
		p.m["exp."+e.stem+".mallocs"] = median(mallocs[e.entry])
	}
	p.m["exp.other.s"] = median(other)
	p.m["render.ms"] = median(render) * 1e3
}

// textResult is a registry result that renders a fixed string.
type textResult string

func (r textResult) Render() string { return string(r) }

// probeCore times one lifecycle step of the serve cohort and one test plan of
// Farron's planner.
func (p *prober) probeCore() error {
	cohort := experiments.LifecycleCohort(p.ctx1, p.b.cfg.sizes.serveSteps)
	steps := make([]float64, 0, len(cohort)*lifecycleSteps)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, st := range cohort {
		for k := 0; k < lifecycleSteps && !st.Done(); k++ {
			steps = append(steps, timed(func() { st.Step() }))
		}
	}
	runtime.ReadMemStats(&after)
	if len(steps) == 0 {
		return errors.New("lifecycle cohort took no steps")
	}
	p.m["core.lifecycle_step_us"] = median(steps) * 1e6
	p.m["core.lifecycle_step_allocs"] = float64(after.Mallocs-before.Mallocs) / float64(len(steps))

	prof := p.ctx1.Profile("FPU2")
	if prof == nil {
		return errors.New("no FPU2 study profile")
	}
	planner := core.NewPlanner(core.DefaultPlannerConfig(), p.ctx1.Suite, prof.Features())
	plans := make([]float64, 0, callProbeRepeats)
	for i := 0; i < callProbeRepeats; i++ {
		plans = append(plans, timed(func() { planner.Plan(1) }))
	}
	p.m["core.planner_plan_us"] = median(plans) * 1e6
	return nil
}

// probeTestkit times one compiled testcase run: a one-minute FPU2 run on core 8,
// the runner benchmarks' fixture.
func (p *prober) probeTestkit() error {
	prof := p.ctx1.Profile("FPU2")
	if prof == nil {
		return errors.New("no FPU2 study profile")
	}
	failing := p.ctx1.Failing(prof)
	if len(failing) == 0 {
		return errors.New("FPU2 has no failing testcase")
	}
	proc := cpu.FromProfile(prof)
	pkg := thermal.New(thermal.DefaultConfig(), proc.PhysCores, simrand.New(p.seed).Derive("probe"))
	r := testkit.NewRunner(p.ctx1.Suite, proc, pkg)
	opts := testkit.RunOpts{Core: 8, Duration: time.Minute}
	r.Run(failing[0], opts) // builds the runner's arena and plan cache
	runs := make([]float64, 0, callProbeRepeats)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < callProbeRepeats; i++ {
		runs = append(runs, timed(func() { r.Run(failing[0], opts) }))
	}
	runtime.ReadMemStats(&after)
	p.m["testkit.run_testcase_us"] = median(runs) * 1e6
	p.m["testkit.run_testcase_allocs"] = float64(after.Mallocs-before.Mallocs) / callProbeRepeats
	return nil
}

// probeMicro times the innermost calls in batches: a thermal step and three
// simrand draws.
func (p *prober) probeMicro() error {
	batch := func(n int, fn func(i int)) float64 {
		per := make([]float64, microProbeBatches)
		for k := range per {
			per[k] = timed(func() {
				for i := 0; i < n; i++ {
					fn(i)
				}
			}) / float64(n) * 1e9
		}
		return median(per)
	}
	pkg := thermal.New(thermal.DefaultConfig(), 16, simrand.New(p.seed).Derive("thermal"))
	pkg.SetLoad(0, 1, 1)
	p.m["thermal.step_ns"] = batch(100_000, func(int) { pkg.Step(time.Second) })
	rng := simrand.New(p.seed)
	p.m["simrand.norm_ns"] = batch(200_000, func(int) { rng.Norm(0, 1) })
	p.m["simrand.poisson_ns"] = batch(100_000, func(int) { rng.Poisson(4) })
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	p.m["simrand.derive_ns"] = batch(50_000, func(i int) { rng.Derive("probe", keys[i%len(keys)]) })
	return nil
}

// probeFleet runs each strategy's simulation serially, then replays the
// Screener API over synthetic serials to time its calls one kind at a
// time, the way Simulator.Run sequences them.
func (p *prober) probeFleet() error {
	n := p.b.cfg.sizes.replayCPUs
	mix := fleet.DefaultMix()
	serials := make([]string, n)
	for i := range serials {
		serials[i] = fmt.Sprintf("%s-probe-%05d", mix[i%len(mix)].Arch, i)
	}
	for _, s := range sweepStrategies {
		cfg := p.b.fleetConfig(p.seed, s, 1)
		sim, err := fleet.NewSimulator(cfg, p.ctx1.Suite)
		if err != nil {
			return err
		}
		var res *fleet.Result
		p.m["fleet."+s+".run_s"] = timed(func() { res = sim.Run() })
		p.m["fleet."+s+".detected"] = float64(res.DetectedTotal())
		p.m["fleet."+s+".escaped"] = float64(res.Escaped)
		p.m["fleet.faulty_cpus"] = float64(res.FaultyTotal)

		replay, err := fleet.NewSimulator(cfg, p.ctx1.Suite)
		if err != nil {
			return err
		}
		scr := replay.Screener()
		screens := make([]fleet.Screen, n)
		newScreen := timed(func() {
			for i := range screens {
				screens[i] = scr.NewScreen(serials[i], mix[i%len(mix)].Arch)
			}
		})
		pre := timed(func() {
			for _, sc := range screens {
				sc.PreProduction()
			}
		})
		hits := make([]bool, n)
		var rounds, endRounds float64
		for round := 0; round < cfg.RegularRounds; round++ {
			rounds += timed(func() {
				for i, sc := range screens {
					hits[i] = sc.RegularRound()
				}
			})
			for i, hit := range hits {
				if hit {
					o := screens[i].Outcome()
					scr.Observe(fleet.Detection{Serial: serials[i], Arch: mix[i%len(mix)].Arch,
						Stage: o.Stage, TestcaseID: o.TestcaseID, Round: round})
				}
			}
			endRounds += timed(func() { scr.EndRound(round) })
		}
		p.m["fleet."+s+".new_screen_us"] = newScreen / float64(n) * 1e6
		p.m["fleet."+s+".preproduction_us"] = pre / float64(n) * 1e6
		p.m["fleet."+s+".round_ns"] = rounds / float64(n*cfg.RegularRounds) * 1e9
		p.m["fleet."+s+".end_round_us"] = endRounds / float64(cfg.RegularRounds) * 1e6
	}
	return nil
}

// probeServe times building the service, its first campaigns and marshalling
// their history.
func (p *prober) probeServe() error {
	var svc *serve.Service
	var err error
	p.m["serve.new_ms"] = timed(func() {
		svc, err = serve.New(engine.NewRunnerCtx(p.ctx2, engine.RunOptions{}), p.b.serveConfig())
	}) * 1e3
	if err != nil {
		return err
	}
	campaigns := make([]float64, 0, serveProbeSteps)
	for c := 0; c < min(serveProbeSteps, p.b.cfg.sizes.serveSteps); c++ {
		campaigns = append(campaigns, timed(func() { _, err = svc.StepCampaign() }))
		if err != nil {
			return err
		}
	}
	p.m["serve.campaign_ms"] = median(campaigns) * 1e3
	p.m["serve.history_json_ms"] = timed(func() { _, err = svc.HistoryJSON() }) * 1e3
	return err
}

// probeCache stores the rendered report's sections in an empty cache and loads
// them back.
func (p *prober) probeCache() error {
	dir, err := p.b.workDir("probe-cache")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c, err := cache.Open(dir)
	if err != nil {
		return err
	}
	var store, load, size []float64
	for _, s := range p.sections {
		key := cache.Key("probe", s.Name)
		store = append(store, timed(func() { err = c.Store(key, cache.Entry{Name: s.Name, Body: s.Body, WallSeconds: 1}) }))
		if err != nil {
			return err
		}
		var got cache.Entry
		var ok bool
		load = append(load, timed(func() { got, ok = c.Load(key) }))
		if !ok || got.Body != s.Body {
			return fmt.Errorf("entry %q did not load back", s.Name)
		}
		size = append(size, float64(len(s.Body)))
	}
	p.m["cache.store_us"] = median(store) * 1e6
	p.m["cache.load_us"] = median(load) * 1e6
	p.m["cache.entry_bytes"] = median(size)
	return nil
}

// probeWire encodes each rendered section as a result frame and decodes it
// back.
func (p *prober) probeWire() error {
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	var encode, decode, size []float64
	for r := 0; r < 4; r++ {
		for i, s := range p.sections {
			buf.Reset()
			var err error
			encode = append(encode, timed(func() {
				err = enc.Encode(wire.Result{Index: i, Name: s.Name, Body: s.Body, WallSeconds: 1})
			}))
			if err != nil {
				return err
			}
			size = append(size, float64(buf.Len()))
			var got wire.Result
			decode = append(decode, timed(func() { err = wire.ReadFrame(&buf, &got) }))
			if err != nil {
				return err
			}
			if got.Body != s.Body {
				return fmt.Errorf("frame of %q did not decode back", s.Name)
			}
		}
	}
	p.m["wire.encode_us"] = median(encode) * 1e6
	p.m["wire.decode_us"] = median(decode) * 1e6
	p.m["wire.frame_bytes"] = median(size)
	return nil
}

// probeCluster runs the quick registry over the loopback daemons and reports
// how long it took and how the coordinator spread it. (WorkerProc's
// per-connection WallSeconds would say more, but the coordinator reports
// it as 0.)
func (p *prober) probeCluster() error {
	hosts, err := startDaemons()
	if err != nil {
		return err
	}
	runner := engine.NewRunnerCtx(engine.NewCtxWorkers(p.seed, 1), engine.RunOptions{
		Fanout:      len(hosts),
		Distributor: cluster.New(cluster.Options{Hosts: hosts}),
	})
	_, rep, err := runner.Run(experiments.Registry(), p.b.cfg.sizes.quick)
	if err != nil {
		return err
	}
	total, most, lost := 0, 0, 0
	for _, w := range rep.WorkerProcs {
		total += w.Entries
		most = max(most, w.Entries)
		lost += w.Lost
	}
	p.m["cluster.entries_max_share"] = float64(most) / float64(max(total, 1))
	p.m["cluster.run_s"] = rep.WallSeconds
	p.m["cluster.lost"] = float64(lost)
	p.m["cluster.recomputed"] = float64(rep.RecomputedShards)
	return nil
}
