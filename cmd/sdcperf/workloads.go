package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"farron/internal/engine"
	"farron/internal/engine/cache"
	"farron/internal/engine/cluster"
	"farron/internal/experiments"
	"farron/internal/fleet"
	"farron/internal/model"
	"farron/internal/serve"
)

// Every workload is a closed loop with one client. Before timing starts it
// runs its op untimed on the run's held-out seed twice, first at one
// worker, in process or into an empty cache, then as timed ops run it, so
// the two outputs must be byte-identical across worker budgets, transports
// and the cache. The timed window then makes whole passes over the
// workload's seed panel (bench.passes). Every output is checked against
// its golden digest when it has one and against the first output seen for
// the same inputs.

// workloadRuns maps each workload to its run.
var workloadRuns = map[string]func(*bench) error{
	"paper-report":    paperReport,
	"fleet-sweep":     fleetSweep,
	"serve-campaigns": serveCampaigns,
	"cluster-cold":    clusterCold,
	"cache-warm":      cacheWarm,
}

// runRegistry runs exps on runner inside an engine.run span under root and
// returns the digest of the report the sections render.
func (b *bench) runRegistry(root int, runner *engine.Runner, exps []engine.Experiment, sc engine.Scale) (string, *engine.RunReport, error) {
	var (
		sections []engine.Section
		rep      *engine.RunReport
	)
	err := b.tr.do("engine.run", root, func(id int) error {
		b.tr.under(id)
		var err error
		sections, rep, err = runner.Run(exps, sc)
		return err
	})
	if err != nil {
		return "", rep, err
	}
	var d string
	err = b.tr.do("report", root, func(int) error {
		var err error
		d, err = reportDigest(sections)
		return err
	})
	return d, rep, err
}

// paperReport: one op builds the context for its seed, runs the whole
// registry at paper scale and renders the report, as one sdcbench
// invocation does. The set-up samples time the context build alone. Seed
// 1's report is bench_report.txt.
func paperReport(b *bench) error {
	exps := experiments.Registry()
	if b.tr != nil {
		exps = traceRegistry(exps, func() *tracer { return b.tr })
	}
	sc := b.cfg.sizes.scale
	report := func(seed uint64, workers, root int) error {
		var ctx *engine.Ctx
		b.tr.time("ctx", root, func() { ctx = engine.NewCtxWorkers(seed, workers) })
		d, _, err := b.runRegistry(root, engine.NewRunnerCtx(ctx, engine.RunOptions{}), exps, sc)
		if err != nil {
			return err
		}
		return b.check(outKey("report", seed), d)
	}
	for _, w := range []int{1, b.workers} {
		b.warmup(func() error { return report(b.heldOut, w, noSpan) })
	}
	b.passes(func(i int, traced bool) {
		seed := b.panel[i]
		b.timeSetup(i, func() error {
			engine.NewCtxWorkers(seed, b.workers)
			return nil
		})
		b.op(i, traced, func(root int) error { return report(seed, b.workers, root) })
	})
	return nil
}

// fleetConfig is the fleet-sweep simulation of a seed.
func (b *bench) fleetConfig(seed uint64, strategy string, workers int) fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.Processors = b.cfg.sizes.fleetCPUs
	cfg.Strategy = strategy
	cfg.Seed = seed
	cfg.Workers = workers
	return cfg
}

// fleetSweep: one op screens the fleet of its seed once per strategy,
// running the simulators the set-up built: the seed's context (the testcase
// suite every strategy screens with) and one simulator per strategy.
func fleetSweep(b *bench) error {
	sims := make([]*fleet.Simulator, len(sweepStrategies))
	build := func(seed uint64, workers int) error {
		ctx := engine.NewCtxWorkers(seed, workers)
		for k, s := range sweepStrategies {
			var err error
			if sims[k], err = fleet.NewSimulator(b.fleetConfig(seed, s, workers), ctx.Suite); err != nil {
				return err
			}
		}
		return nil
	}
	sweep := func(seed uint64, root int) error {
		for k, s := range sweepStrategies {
			var res *fleet.Result
			b.tr.time("fleet.run:"+s, root, func() { res = sims[k].Run() })
			if err := b.check(outKey("fleet", seed, s), fleetDigest(res)); err != nil {
				return err
			}
		}
		return nil
	}
	for _, w := range []int{1, b.workers} {
		b.warmup(func() error {
			if err := build(b.heldOut, w); err != nil {
				return err
			}
			return sweep(b.heldOut, noSpan)
		})
	}
	b.passes(func(i int, traced bool) {
		seed := b.panel[i]
		if err := b.timeSetup(i, func() error { return build(seed, b.workers) }); err != nil {
			b.attempted++
			b.fail(1, err)
			return
		}
		b.op(i, traced, func(root int) error { return sweep(seed, root) })
	})
	return nil
}

// fleetDigest is the digest of everything a fleet result reports.
func fleetDigest(r *fleet.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s %d %d %v %d\n", r.Strategy, r.Population, r.FaultyTotal, r.DetectedByStage, r.Escaped)
	arches := make([]string, 0, len(r.ByArch))
	for a := range r.ByArch {
		arches = append(arches, string(a))
	}
	sort.Strings(arches)
	for _, a := range arches {
		ar := r.ByArch[model.MicroArch(a)]
		fmt.Fprintf(h, "%s %d %d %d\n", a, ar.Population, ar.Faulty, ar.Detected)
	}
	tcs := make([]string, 0, len(r.EffectiveTestcases))
	for id := range r.EffectiveTestcases {
		tcs = append(tcs, id)
	}
	sort.Strings(tcs)
	fmt.Fprintln(h, strings.Join(tcs, ","))
	for _, p := range r.FaultyProfiles {
		fmt.Fprintln(h, p.CPUID)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// serveConfig is the service the serve-campaigns workload steps.
func (b *bench) serveConfig() serve.Config {
	return serve.Config{
		FleetSize: b.cfg.sizes.serveCPUs,
		Steps:     b.cfg.sizes.serveSteps,
		Scale:     b.cfg.sizes.scale,
	}
}

// serveCampaigns: one op is one StepCampaign of a service lifetime. A
// lifetime builds the context and service for its seed (the set-up), then
// steps every campaign; its campaign history is the checked output, so a
// wrong history fails all of the lifetime's campaigns.
func serveCampaigns(b *bench) error {
	steps := b.cfg.sizes.serveSteps
	// lifetime runs the service of seed; a lifetime of panel input i
	// (timed) makes every campaign a timed op and the set-up a sample,
	// and i < 0 runs the held-out seed untimed.
	lifetime := func(i int, seed uint64, workers int, traced bool) {
		timed := i >= 0
		var svc *serve.Service
		setup := func() error {
			ctx := engine.NewCtxWorkers(seed, workers)
			var err error
			svc, err = serve.New(engine.NewRunnerCtx(ctx, engine.RunOptions{}), b.serveConfig())
			return err
		}
		var err error
		if timed {
			err = b.timeSetup(i, setup)
		} else {
			err = setup()
		}
		if err != nil {
			b.attempted++
			b.fail(1, err)
			return
		}
		for c := 0; c < steps; c++ {
			step := func(root int) error {
				return b.tr.do("serve.step", root, func(int) error {
					_, err := svc.StepCampaign()
					return err
				})
			}
			if timed {
				err = b.op(i*steps+c, traced, step)
			} else {
				b.warmup(func() error { err = step(noSpan); return err })
			}
			if err != nil {
				return
			}
		}
		hist, err := svc.HistoryJSON()
		if err == nil {
			err = b.check(outKey("serve", seed), digest(hist))
		}
		if err != nil {
			b.fail(steps, err)
		}
	}
	for _, w := range []int{1, b.workers} {
		lifetime(-1, b.heldOut, w, false)
	}
	b.passes(func(i int, traced bool) { lifetime(i, b.panel[i], b.workers, traced) })
	return nil
}

// clusterCold: one op builds a one-worker context and an empty cache, runs
// the quick registry distributed over the two loopback daemons, which
// store every entry, and renders the report. The set-up samples time the
// context build and a cache.Open alone. The held-out seed runs once in
// process first, so the distributed bytes are checked against a run that
// never touched the transport.
func clusterCold(b *bench) error {
	hosts, err := startDaemons()
	if err != nil {
		return err
	}
	daemonTracer.Store(b.tr)
	defer daemonTracer.Store(nil)
	exps := experiments.Registry()
	sc := b.cfg.sizes.quick
	dist := cluster.New(cluster.Options{Hosts: hosts})
	base, err := b.workDir("caches")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)

	open := func(seed uint64, dir string, root int) (ctx *engine.Ctx, c *cache.Cache, err error) {
		b.tr.time("ctx", root, func() { ctx = engine.NewCtxWorkers(seed, 1) })
		err = b.tr.do("cache.open", root, func(int) error {
			var err error
			c, err = cache.Open(dir)
			return err
		})
		return ctx, c, err
	}
	n := 0
	cold := func(seed uint64, root int) error {
		ctx, c, err := open(seed, filepath.Join(base, strconv.Itoa(n)), root)
		n++
		if err != nil {
			return err
		}
		runner := engine.NewRunnerCtx(ctx, engine.RunOptions{Cache: c, Fanout: len(hosts), Distributor: dist})
		d, rep, err := b.runRegistry(root, runner, exps, sc)
		if err != nil {
			return err
		}
		if err := coldRunHealthy(rep, len(exps)); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		return b.check(outKey("quick", seed), d)
	}
	// removeLast deletes the cache of the latest op, untimed.
	removeLast := func() {
		if err := os.RemoveAll(filepath.Join(base, strconv.Itoa(n-1))); err != nil {
			fmt.Fprintf(os.Stderr, "sdcperf: %s: %v\n", b.name, err)
		}
	}

	b.warmup(func() error {
		ctx := engine.NewCtxWorkers(b.heldOut, b.workers)
		d, _, err := b.runRegistry(noSpan, engine.NewRunnerCtx(ctx, engine.RunOptions{}), exps, sc)
		if err != nil {
			return err
		}
		return b.check(outKey("quick", b.heldOut), d)
	})
	b.warmup(func() error {
		err := cold(b.heldOut, noSpan)
		removeLast()
		return err
	})
	// The set-up samples open a cache nothing is stored into.
	setupDir := filepath.Join(base, "setup")
	b.passes(func(i int, traced bool) {
		seed := b.panel[i]
		if err := b.timeSetup(i, func() error {
			_, _, err := open(seed, setupDir, noSpan)
			return err
		}); err != nil {
			b.attempted++
			b.fail(1, err)
			return
		}
		b.op(i, traced, func(root int) error { return cold(seed, root) })
		removeLast()
	})
	return nil
}

// coldRunHealthy checks a distributed run into an empty cache: every entry
// missed the cache and came back from a daemon, none was lost or
// recomputed locally.
func coldRunHealthy(rep *engine.RunReport, entries int) error {
	if rep.CacheHits != 0 || rep.CacheMisses != entries {
		return fmt.Errorf("cold run: %d cache hits, %d misses, want 0 and %d", rep.CacheHits, rep.CacheMisses, entries)
	}
	if rep.RecomputedShards != 0 {
		return fmt.Errorf("cold run: %d shards recomputed locally", rep.RecomputedShards)
	}
	served := 0
	for _, p := range rep.WorkerProcs {
		if p.Lost != 0 || p.ExitError != "" {
			return fmt.Errorf("cold run: daemon %s lost %d entries: %s", p.Host, p.Lost, p.ExitError)
		}
		served += p.Entries
	}
	if served != entries {
		return fmt.Errorf("cold run: daemons served %d of %d entries", served, entries)
	}
	return nil
}

// cacheWarm: before timing, an untimed cold run in process fills one cache
// per seed. The set-up builds the seed's context and opens its filled
// cache, as a CLI rerun does; one timed op then reruns the quick registry
// from that cache and renders the report. A miss fails the op. The
// held-out seed is filled and rerun untimed.
func cacheWarm(b *bench) error {
	exps := experiments.Registry()
	sc := b.cfg.sizes.quick
	base, err := b.workDir("caches")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)

	build := func(seed uint64) (*engine.Runner, error) {
		ctx := engine.NewCtxWorkers(seed, b.workers)
		c, err := cache.Open(filepath.Join(base, strconv.FormatUint(seed, 10)))
		if err != nil {
			return nil, err
		}
		return engine.NewRunnerCtx(ctx, engine.RunOptions{Cache: c}), nil
	}
	// rerun runs the registry from seed's cache, which must hold all of it
	// when warm and none of it when not.
	rerun := func(seed uint64, runner *engine.Runner, warm bool, root int) error {
		d, rep, err := b.runRegistry(root, runner, exps, sc)
		if err != nil {
			return err
		}
		want := 0
		if !warm {
			want = len(exps)
		}
		if rep.CacheMisses != want {
			return fmt.Errorf("seed %d: %d of %d entries missed the cache, want %d", seed, rep.CacheMisses, len(exps), want)
		}
		return b.check(outKey("quick", seed), d)
	}
	fill := func(seed uint64) {
		b.warmup(func() error {
			runner, err := build(seed)
			if err != nil {
				return err
			}
			return rerun(seed, runner, false, noSpan)
		})
	}

	fill(b.heldOut)
	b.warmup(func() error {
		runner, err := build(b.heldOut)
		if err != nil {
			return err
		}
		return rerun(b.heldOut, runner, true, noSpan)
	})
	for _, seed := range b.panel {
		fill(seed)
	}
	b.passes(func(i int, traced bool) {
		seed := b.panel[i]
		var runner *engine.Runner
		if err := b.timeSetup(i, func() error {
			var err error
			runner, err = build(seed)
			return err
		}); err != nil {
			b.attempted++
			b.fail(1, err)
			return
		}
		b.op(i, traced, func(root int) error { return rerun(seed, runner, true, root) })
	})
	return nil
}
