package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"runtime"

	"farron/internal/engine"
	"farron/internal/engine/wallclock"
	"farron/internal/simrand"
)

// Simulation seeds. The cost of one op varies widely with its simulation
// seed: a paper report takes 0.14 s at one seed and 0.5 s at another, and
// allocates 0.1 GB at one and 1.7 GB at another. A run too short to draw
// hundreds of seeds would mostly measure which seeds it drew. So every
// workload times its ops on a fixed panel of simulation seeds, the first
// panel-size seeds from 1 on that are not denied, whatever the run seed:
// runs at different -seed values measure the same input population and
// differ only by measurement noise, and every panel output is checked
// against a golden digest. The run seed orders the visits and picks one
// held-out seed, outside every panel, that the untimed warm-up runs at one
// and at two workers, so each run also exercises inputs no other run saw.
//
// Denied seeds are those on which some registry entry fails
// (testdata/seeds.json; go test -run TestSeedTable -update rewrites it).
const (
	seedSpace = 5000
	// heldOutFrom is the first held-out seed; panels stay below it.
	heldOutFrom = 101
)

// sizes are the input sizes of a run. The benchmark always runs fullSizes;
// the smoke test shrinks them.
type sizes struct {
	// scale is paper-report's registry scale; quick is the registry scale
	// of cluster-cold, cache-warm and the cluster probe.
	scale, quick engine.Scale
	fleetCPUs    int
	serveCPUs    int
	serveSteps   int
	// panels is each workload's panel size, chosen so that one pass over
	// the panel takes about two seconds (see bench.passes).
	panels map[string]int
	// repeats is the sample count of each repeated probe of a traced run,
	// replayCPUs the screen count of the fleet API replay.
	repeats, replayCPUs int
}

func fullSizes() sizes {
	return sizes{
		scale:      engine.DefaultScale(),
		quick:      engine.QuickScale(),
		fleetCPUs:  10_000_000,
		serveCPUs:  1_000_000,
		serveSteps: 104,
		panels: map[string]int{
			"paper-report":    8,
			"fleet-sweep":     8,
			"serve-campaigns": 3,
			"cluster-cold":    8,
			"cache-warm":      16,
		},
		repeats:    3,
		replayCPUs: 2000,
	}
}

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	workdir string
	sizes   sizes
	// golden maps output keys to the digests the outputs must have.
	golden map[string]string
	// denied are the simulation seeds no workload runs.
	denied map[uint64]bool
	// pmu counts the process's cycles and instructions; nil counts
	// nothing (tests on a host without hardware counters).
	pmu *pmu
	// passes, when positive, replaces the timed window with exactly this
	// many passes over the panel; the tests use it.
	passes int
}

// maxFailureLines caps the failure diagnostics one workload prints.
const maxFailureLines = 10

// opSample is the accounting of one timed op. input identifies what the
// op ran: its panel index, or for serve-campaigns the panel index and the
// campaign.
type opSample struct {
	input   int
	seconds float64
	// cycles and instructions are the whole process's, in user space.
	cycles, instructions float64
	allocs               uint64 // bytes allocated
	mallocs              uint64
	gcCycles             uint32
	gcPauseNs            uint64
	traced               bool
}

// pmuCounts are hardware event counts of the whole process, user space
// only.
type pmuCounts struct {
	cycles, instructions float64
}

// bench is the harness state of one workload run: the ops timed so far,
// the set-up samples, failure counts and the digest seen per output.
type bench struct {
	cfg     config
	name    string
	workers int
	tr      *tracer // nil on untraced runs
	// panel is the workload's timed seeds; heldOut the run's warm-up seed.
	panel   []uint64
	heldOut uint64

	ops       []opSample
	setup     []setupSample
	attempted int
	failed    int
	seen      map[string]string
	failLines int
}

func newBench(cfg config, name string) *bench {
	b := &bench{
		cfg:     cfg,
		name:    name,
		workers: min(2, runtime.NumCPU()),
		panel:   allowedSeeds(1, cfg.sizes.panels[name], cfg.denied),
		heldOut: allowedSeeds(heldOutFrom+(cfg.seed-1)%(seedSpace-heldOutFrom), 1, cfg.denied)[0],
		seen:    make(map[string]string),
	}
	if cfg.trace {
		b.tr = newTracer()
	}
	return b
}

// allowedSeeds returns the first n seeds from seed from on that are not
// denied.
func allowedSeeds(from uint64, n int, denied map[uint64]bool) []uint64 {
	seeds := make([]uint64, 0, n)
	for s := from; len(seeds) < n; s++ {
		if !denied[s] {
			seeds = append(seeds, s)
		}
	}
	return seeds
}

// outKey names a checked output by kind ("report", "quick", "fleet",
// "serve"), simulation seed and any further parts (a fleet strategy). Two
// workloads that produce the same output share its key and golden.
func outKey(kind string, seed uint64, parts ...string) string {
	k := fmt.Sprintf("%s/%d", kind, seed)
	for _, p := range parts {
		k += "/" + p
	}
	return k
}

// check compares an output digest with its golden, if it has one, and with
// the first digest seen under the same key.
func (b *bench) check(key, digest string) error {
	if want, ok := b.cfg.golden[key]; ok && want != digest {
		return fmt.Errorf("%s: output digest %.16s, golden %.16s", key, digest, want)
	}
	first, ok := b.seen[key]
	if !ok {
		b.seen[key] = digest
		return nil
	}
	if first != digest {
		return fmt.Errorf("%s: output digest %.16s, first run gave %.16s", key, digest, first)
	}
	return nil
}

// fail counts n failed ops and prints why.
func (b *bench) fail(n int, err error) {
	b.failed += n
	if b.failLines < maxFailureLines {
		fmt.Fprintf(os.Stderr, "sdcperf: %s: %v\n", b.name, err)
	}
	b.failLines++
}

// warmup runs one untimed op.
func (b *bench) warmup(fn func() error) {
	b.attempted++
	if err := fn(); err != nil {
		b.fail(1, err)
	}
}

// setupSample is one timed set-up of a panel input.
type setupSample struct {
	input   int
	seconds float64
}

// op runs one timed op on the given input. The heap is collected first,
// untimed, as each CLI invocation starts on a fresh one. traced turns span
// recording on for this op; fn gets the op's root span.
func (b *bench) op(input int, traced bool, fn func(root int) error) error {
	traced = traced && b.tr != nil
	if b.tr != nil {
		b.tr.on.Store(traced)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c0, cerr := b.cfg.pmu.read()
	start := wallclock.Start()
	err := b.tr.do("op", noSpan, fn)
	sec := start.Seconds()
	c1, cerr1 := b.cfg.pmu.read()
	runtime.ReadMemStats(&after)
	if b.tr != nil {
		b.tr.on.Store(false)
	}
	if err == nil {
		err = errors.Join(cerr, cerr1)
	}
	b.ops = append(b.ops, opSample{
		input:        input,
		seconds:      sec,
		cycles:       c1.cycles - c0.cycles,
		instructions: c1.instructions - c0.instructions,
		allocs:       after.TotalAlloc - before.TotalAlloc,
		mallocs:      after.Mallocs - before.Mallocs,
		gcCycles:     after.NumGC - before.NumGC,
		gcPauseNs:    after.PauseTotalNs - before.PauseTotalNs,
		traced:       traced,
	})
	b.attempted++
	if err != nil {
		b.fail(1, err)
	}
	return err
}

// setupRepeats is how many times each visit to an input builds the
// workload's set-up. A set-up takes a few milliseconds, so one sample per
// visit is at the mercy of whatever else the host is doing at that moment.
const setupRepeats = 5

// timeSetup builds the set-up of the given input setupRepeats times, each
// on a freshly collected heap like the timed ops, and records every build
// as a set-up sample; the caller keeps what the last build made.
func (b *bench) timeSetup(input int, fn func() error) error {
	for r := 0; r < setupRepeats; r++ {
		runtime.GC()
		start := wallclock.Start()
		err := fn()
		b.setup = append(b.setup, setupSample{input, start.Seconds()})
		if err != nil {
			return err
		}
	}
	return nil
}

// passes runs the timed window: whole passes over the panel, each in an
// order shuffled from the run seed, until -seconds have passed. Ending on a
// pass boundary weights every panel seed equally, however fast the program
// is. A traced run traces every other pass and ends on an even count, so
// traced and untraced ops cover the same inputs equally often and their
// fastest ops compare fairly.
//
// Passes are short (panel sizes are chosen for about two seconds) because
// the host is shared: its neighbours slow it down for stretches of 5 to 25
// seconds at a time, through the memory system and the clock rate. The
// end-to-end metrics take each input's fastest op, and with short passes
// every input is visited again in each quiet stretch of the window.
func (b *bench) passes(visit func(i int, traced bool)) {
	order := simrand.New(b.cfg.seed).Derive("visit order")
	window := wallclock.Start()
	for pass := 1; ; pass++ {
		for _, i := range order.Perm(len(b.panel)) {
			visit(i, pass%2 == 1)
		}
		if b.cfg.passes > 0 {
			if pass >= b.cfg.passes {
				return
			}
			continue
		}
		if window.Seconds() >= b.cfg.seconds && (b.tr == nil || pass%2 == 0) {
			return
		}
	}
}

// digest is the hex SHA-256 of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// reportDigest renders sections the way sdcbench writes its report (headed
// sections) and returns the digest of the bytes.
func reportDigest(sections []engine.Section) (string, error) {
	h := sha256.New()
	if err := engine.WriteSections(h, sections, true); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// workDir returns a fresh directory under the run's work directory.
func (b *bench) workDir(name string) (string, error) {
	dir := b.cfg.workdir + "/" + b.name + "-" + name
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
