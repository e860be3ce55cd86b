package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
)

// Digests of the default-scale export and Table 2 GA selection at
// pipeline seed 1 (the CLI default). Results are byte-identical for any
// worker count, so they hold on any machine.
const (
	pinnedExportSHA256    = "5d31ca7dd0c318cbcfafd8b7f0733aa49a7859b76e72432ed81868c38ab71f05"
	pinnedSelectionSHA256 = "596980d9e38cb40edf5ce3c6544973c07036f77b8cf8232f19b2adbec2a2676a"
)

// variants is how many pipeline seeds, derived from the workload seed,
// the repetitions of one run rotate through. The cost of k-means and the
// GA depends on the sampled data (how well the distance bounds prune, when
// the GA plateaus) by up to a fifth between seeds, so a run on one seed
// would measure its data as much as the program; averaging over several
// keeps run-to-run spread down. Variant 0 is the workload seed itself.
const variants = 8

// methodology is one default-scale, full-roster pipeline configuration
// and the reference outputs its repetitions must reproduce.
type methodology struct {
	reg *bench.Registry
	cfg core.Config

	first map[int]*repetition // each variant's first outputs
}

func newMethodology(r *run) (*methodology, error) {
	reg, err := bench.StandardRegistry()
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Seed = r.seed
	cfg.Workers = r.workers
	return &methodology{reg: reg, cfg: cfg, first: map[int]*repetition{}}, nil
}

// repetition is one pass of the paper's six steps and what it produced.
type repetition struct {
	variant   int
	res       *core.Result
	export    []byte
	selection []byte
	counters  map[string]int64
	runDur    time.Duration // core.Run
	gaDur     time.Duration // Result.SelectKeyCharacteristics
	exportDur time.Duration // Result.WriteJSON
}

func (p *repetition) total() time.Duration { return p.runDur + p.gaDur + p.exportDur }

// rep runs core.Run, the Table 2 GA and the JSON export over cacheDir.
// A collector is installed, as the CLI installs one, so the process-global
// dataset memo cannot serve the repetition.
func (m *methodology) rep(cacheDir string, variant int) (*repetition, error) {
	cfg := m.cfg
	cfg.CacheDir = cacheDir
	cfg.Metrics = obs.New()
	if variant > 0 {
		cfg.Seed = derivedSeed(cfg.Seed, saltVariant, uint64(variant))
	}
	p := &repetition{variant: variant}
	t0 := time.Now()
	res, err := core.Run(m.reg, cfg, nil)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	sel, err := res.SelectKeyCharacteristics(cfg.KeyCharacteristics)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return nil, err
	}
	t3 := time.Now()
	p.res, p.export = res, buf.Bytes()
	p.runDur, p.gaDur, p.exportDur = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	if p.selection, err = json.Marshal(sel); err != nil {
		return nil, err
	}
	p.counters = cfg.Metrics.Snapshot().Counters
	return p, nil
}

// check compares a repetition's outputs with the first ones of its
// variant in the run; the first outputs at pipeline seed 1 must also
// match the pinned digests.
func (m *methodology) check(r *run, p *repetition) {
	ref, ok := m.first[p.variant]
	if !ok {
		m.first[p.variant] = &repetition{export: p.export, selection: p.selection}
		if m.cfg.Seed == 1 && p.variant == 0 {
			if e, s := digest(p.export), digest(p.selection); e != pinnedExportSHA256 || s != pinnedSelectionSHA256 {
				r.fail("seed-1 digests: export %s, GA selection %s; pinned %s, %s", e, s, pinnedExportSHA256, pinnedSelectionSHA256)
			}
		}
		return
	}
	switch {
	case !bytes.Equal(p.export, ref.export):
		r.fail("variant %d export differs from its first (%s vs %s)", p.variant, digest(p.export), digest(ref.export))
	case !bytes.Equal(p.selection, ref.selection):
		r.fail("variant %d GA selection differs from its first: %s vs %s", p.variant, p.selection, ref.selection)
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// guardCold: every unique interval was characterized, none read back.
func guardCold(r *run, p *repetition) {
	c, unique := p.counters, int64(p.res.Dataset.UniqueIntervals)
	if c["fcache.hits"] != 0 || c["fcache.misses.vector"] != unique {
		r.guardFail("cold repetition: fcache.hits=%d fcache.misses.vector=%d, want 0 and %d unique intervals",
			c["fcache.hits"], c["fcache.misses.vector"], unique)
	}
}

// guardWarm: every interval vector came from the cache (none computed,
// none served by the in-process memo, which skips the cache), and the
// analysis stages were recomputed, not resumed.
func guardWarm(r *run, p *repetition) {
	c, unique := p.counters, int64(p.res.Dataset.UniqueIntervals)
	if c["fcache.misses"] != 0 || c["fcache.hits.vector"] != unique {
		r.guardFail("warm repetition: fcache.misses=%d fcache.hits.vector=%d, want 0 and %d unique intervals",
			c["fcache.misses"], c["fcache.hits.vector"], unique)
	}
	if c["engine.computed.pca"] != 1 || c["engine.computed.kmeans"] != 1 {
		r.guardFail("warm repetition: engine.computed.pca=%d engine.computed.kmeans=%d, want both 1",
			c["engine.computed.pca"], c["engine.computed.kmeans"])
	}
}

// repetitions keeps what the ledger needs from the measured repetitions:
// their times, cache counters and the last traced one. Older Results are
// dropped, so the harness does not inflate the peak resident set.
type repetitions struct {
	plain, traced []float64 // ms
	hits, lookups int64
	last          *repetition
}

func (s *repetitions) add(r *run, p *repetition, traced bool) {
	if !traced {
		s.plain = append(s.plain, ms(p.total()))
		r.ops = append(r.ops, ms(p.total()))
		return
	}
	s.traced = append(s.traced, ms(p.total()))
	s.hits += p.counters["fcache.hits"]
	s.lookups += p.counters["fcache.hits"] + p.counters["fcache.misses"]
	s.last = p
}

// loop runs op in a closed loop until the run's measuring time is spent,
// at least once, rotating the variant. In a traced run it alternates
// untraced and traced operations on the same variant (at least one pair)
// so the ledger can state the tracing's own cost.
func (r *run) loop(op func(i, variant int, traced bool) error) error {
	start := time.Now()
	for i := 0; ; i++ {
		variant, traced := i%variants, false
		if r.traced {
			variant, traced = (i/2)%variants, i%2 == 1
		}
		if err := op(i, variant, traced); err != nil {
			return err
		}
		if time.Since(start) >= r.seconds && (!r.traced || i >= 1) {
			return nil
		}
	}
}

func runCold(r *run) error {
	// Set-up (loading the roster and the configuration) takes well under a
	// millisecond, so it is repeated to give its median something to
	// stand on.
	var m *methodology
	for i := 0; i < 10; i++ {
		t0 := time.Now()
		var err error
		if m, err = newMethodology(r); err != nil {
			return err
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
	}
	var reps repetitions
	err := r.loop(func(i, variant int, traced bool) error {
		dir, err := r.dir(fmt.Sprintf("cold-%d", i))
		if err != nil {
			return err
		}
		r.attempted++
		p, err := m.rep(dir, variant)
		if err != nil {
			r.fail("repetition %d: %v", i, err)
			return nil
		}
		guardCold(r, p)
		m.check(r, p)
		reps.add(r, p, traced)
		logf("cold repetition %d: run %.3f s, GA %.3f s, export %.3f s (traced %v)", i, p.runDur.Seconds(), p.gaDur.Seconds(), p.exportDur.Seconds(), traced)
		// Keep only the newest repetition's cache: older ones would only
		// fill the disk.
		if i > 0 {
			return os.RemoveAll(filepath.Join(r.work, fmt.Sprintf("cold-%d", i-1)))
		}
		return nil
	})
	if err != nil || !r.traced || reps.last == nil {
		return err
	}
	return reps.ledger(r)
}

func runWarm(r *run) error {
	m, err := newMethodology(r)
	if err != nil {
		return err
	}
	// Set-up runs one cold repetition, whose outputs are the reference
	// the warm repetitions of its variant must equal, then characterizes
	// every remaining interval of the roster, so every variant is warm.
	warmDir, err := r.dir("warm")
	if err != nil {
		return err
	}
	t0 := time.Now()
	r.attempted++
	warmup, err := m.rep(warmDir, 0)
	if err != nil {
		return fmt.Errorf("warming the cache: %w", err)
	}
	guardCold(r, warmup)
	m.check(r, warmup)
	all := m.cfg
	all.SampleByBenchmark = false
	all.CacheDir = warmDir
	all.Metrics = obs.New()
	if _, err := core.Characterize(core.SampleRefs(m.reg, all), all); err != nil {
		return fmt.Errorf("warming the cache: %w", err)
	}
	r.setup = append(r.setup, time.Since(t0).Seconds())
	logf("warm set-up (a cold repetition, then every other interval): %.3f s", r.setup[0])

	var reps repetitions
	err = r.loop(func(i, variant int, traced bool) error {
		r.attempted++
		p, err := m.rep(warmDir, variant)
		if err != nil {
			r.fail("repetition %d: %v", i, err)
			return nil
		}
		guardWarm(r, p)
		m.check(r, p)
		reps.add(r, p, traced)
		return nil
	})
	if err != nil || !r.traced || reps.last == nil {
		return err
	}
	return reps.ledger(r)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
