package ppm

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, cfg Config) *Predictor {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigNames(t *testing.T) {
	tests := []struct {
		cfg  Config
		want string
	}{
		{Config{Global, Global, 8, 0}, "GAg"},
		{Config{Global, PerAddress, 8, 0}, "GAs"},
		{Config{PerAddress, Global, 8, 0}, "PAg"},
		{Config{PerAddress, PerAddress, 8, 0}, "PAs"},
	}
	for _, tt := range tests {
		if got := tt.cfg.Name(); got != tt.want {
			t.Errorf("Name() = %q, want %q", got, tt.want)
		}
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	if _, err := New(Config{MaxHistory: -1}); err == nil {
		t.Fatal("negative history accepted")
	}
	if _, err := New(Config{MaxHistory: 40}); err == nil {
		t.Fatal("oversized history accepted")
	}
	if _, err := New(Config{MaxHistory: 8, TableBits: 2}); err == nil {
		t.Fatal("tiny table accepted")
	}
	if _, err := New(Config{MaxHistory: 8, TableBits: 30}); err == nil {
		t.Fatal("huge table accepted")
	}
}

func TestAlwaysTakenLearned(t *testing.T) {
	p := mustNew(t, Config{Global, Global, 8, 0})
	for i := 0; i < 1000; i++ {
		p.Record(0x400, true)
	}
	if rate := p.MissRate(); rate > 0.01 {
		t.Fatalf("always-taken miss rate = %v", rate)
	}
}

func TestAlternatingPatternLearned(t *testing.T) {
	for _, cfg := range StandardConfigs() {
		p := mustNew(t, cfg)
		for i := 0; i < 2000; i++ {
			p.Record(0x400, i%2 == 0)
		}
		if rate := p.MissRate(); rate > 0.05 {
			t.Fatalf("%s_%d: alternating pattern miss rate %v", cfg.Name(), cfg.MaxHistory, rate)
		}
	}
}

func TestPeriodicPatternNeedsHistory(t *testing.T) {
	// A period-6 pattern (5 taken, 1 not) is learnable with history >= 5
	// but not with history 4 contexts alone (the all-taken context is
	// ambiguous), so longer histories must do strictly better.
	run := func(hist int) float64 {
		p := mustNew(t, Config{Global, Global, hist, 0})
		for i := 0; i < 6000; i++ {
			p.Record(0x400, i%6 != 5)
		}
		return p.MissRate()
	}
	short := run(4)
	long := run(12)
	if long >= short {
		t.Fatalf("12-bit history (%v) not better than 4-bit (%v) on period-6 pattern", long, short)
	}
	if long > 0.02 {
		t.Fatalf("period-6 pattern not learned by 12-bit PPM: %v", long)
	}
}

func TestRandomOutcomesNearHalf(t *testing.T) {
	p := mustNew(t, Config{Global, PerAddress, 8, 0})
	x := uint64(12345)
	for i := 0; i < 50000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		p.Record(0x400, x>>63 == 1)
	}
	if rate := p.MissRate(); math.Abs(rate-0.5) > 0.05 {
		t.Fatalf("random-outcome miss rate = %v, want ~0.5", rate)
	}
}

func TestPerAddressHistorySeparatesBranches(t *testing.T) {
	// Two interleaved branches with opposite constant outcomes: trivial
	// for per-address history, also learnable globally, but per-address
	// tables must not confuse them.
	p := mustNew(t, Config{PerAddress, PerAddress, 8, 0})
	for i := 0; i < 4000; i++ {
		p.Record(0x100, true)
		p.Record(0x200, false)
	}
	if rate := p.MissRate(); rate > 0.01 {
		t.Fatalf("two-constant-branch miss rate = %v", rate)
	}
}

func TestReset(t *testing.T) {
	p := mustNew(t, Config{Global, Global, 4, 0})
	for i := 0; i < 100; i++ {
		p.Record(0x400, true)
	}
	p.Reset()
	if p.Predictions() != 0 || p.Misses() != 0 {
		t.Fatal("Reset did not clear counters")
	}
	if p.MissRate() != 0 {
		t.Fatal("MissRate after Reset should be 0")
	}
}

func TestStandardConfigs(t *testing.T) {
	cfgs := StandardConfigs()
	if len(cfgs) != 12 {
		t.Fatalf("got %d standard configs, want 12", len(cfgs))
	}
	seen := map[string]bool{}
	for _, c := range cfgs {
		key := c.Name() + string(rune(c.MaxHistory))
		if seen[key] {
			t.Fatalf("duplicate config %s/%d", c.Name(), c.MaxHistory)
		}
		seen[key] = true
		if c.MaxHistory != 4 && c.MaxHistory != 8 && c.MaxHistory != 12 {
			t.Fatalf("unexpected history length %d", c.MaxHistory)
		}
	}
}

// TestGroupMatchesIndividualPredictors is the equivalence property backing
// the analyzer's use of Group: for any outcome stream, the grouped
// predictor must report exactly the miss rates of the twelve independent
// PPM predictors.
func TestGroupMatchesIndividualPredictors(t *testing.T) {
	f := func(seed uint64, raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		groups := StandardGroups()
		var preds []*Predictor
		for _, cfg := range StandardConfigs() {
			p, err := New(cfg)
			if err != nil {
				return false
			}
			preds = append(preds, p)
		}
		x := seed
		for _, b := range raw {
			// A handful of branch PCs with data-dependent outcomes.
			pc := uint64(0x400000 + int(b%7)*4)
			x = x*6364136223846793005 + 1442695040888963407
			taken := (x>>62)&1 == 1 || b%3 == 0
			for gi := range groups {
				groups[gi].Record(pc, taken)
			}
			for _, p := range preds {
				p.Record(pc, taken)
			}
		}
		i := 0
		for gi := range groups {
			for _, rate := range groups[gi].MissRates() {
				if math.Abs(rate-preds[i].MissRate()) > 1e-12 {
					return false
				}
				i++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// outcomeStream produces a deterministic mixed-PC branch stream.
func outcomeStream(seed uint64, n int) []Outcome {
	out := make([]Outcome, n)
	x := seed
	for i := range out {
		x = x*6364136223846793005 + 1442695040888963407
		out[i] = Outcome{
			PC:    uint64(0x400000 + int(x>>59&7)*4),
			Taken: (x>>62)&1 == 1 || x%5 == 0,
		}
	}
	return out
}

// TestGroupRecordAllMatchesRecord pins RecordAll's chunking for every
// variant: Record (a one-outcome RecordAll) and uneven RecordAll chunks
// over the same outcomes give the same miss rates and prediction count.
func TestGroupRecordAllMatchesRecord(t *testing.T) {
	stream := outcomeStream(99, 5000)
	scalar := StandardGroups()
	batched := StandardGroups()
	for i := range scalar {
		for _, o := range stream {
			scalar[i].Record(o.PC, o.Taken)
		}
		// Feed in uneven chunks to cross batch boundaries mid-history.
		for lo := 0; lo < len(stream); {
			hi := lo + 1 + (lo % 613)
			if hi > len(stream) {
				hi = len(stream)
			}
			batched[i].RecordAll(stream[lo:hi])
			lo = hi
		}
		if scalar[i].Predictions() != batched[i].Predictions() {
			t.Fatalf("%s: predictions %d vs %d", scalar[i].Name(),
				scalar[i].Predictions(), batched[i].Predictions())
		}
		sr, br := scalar[i].MissRates(), batched[i].MissRates()
		for j := range sr {
			if sr[j] != br[j] {
				t.Fatalf("%s length %d: RecordAll miss rate %v, Record %v",
					scalar[i].Name(), scalar[i].Lengths()[j], br[j], sr[j])
			}
		}
	}
}

// TestGroupResetIsolation verifies Reset's deferred slab clear: a group
// reused across many Reset cycles must produce exactly the results of a
// fresh group on every interval, i.e. no counters leak from one interval
// into the next.
func TestGroupResetIsolation(t *testing.T) {
	reused := StandardGroups()
	for round := 0; round < 5; round++ {
		stream := outcomeStream(uint64(round)*77+1, 3000)
		fresh := StandardGroups()
		for i := range reused {
			reused[i].Reset()
			reused[i].RecordAll(stream)
			fresh[i].RecordAll(stream)
			rr, fr := reused[i].MissRates(), fresh[i].MissRates()
			for j := range rr {
				if rr[j] != fr[j] {
					t.Fatalf("round %d %s length %d: reused %v, fresh %v",
						round, reused[i].Name(), reused[i].Lengths()[j], rr[j], fr[j])
				}
			}
		}
	}
}

func TestGroupReset(t *testing.T) {
	g, err := NewGroup(Global, Global, []int{4, 8, 12}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		g.Record(0x4, i%2 == 0)
	}
	g.Reset()
	if g.Predictions() != 0 {
		t.Fatal("Reset did not clear predictions")
	}
	for _, r := range g.MissRates() {
		if r != 0 {
			t.Fatal("Reset did not clear miss counters")
		}
	}
}

func TestGroupRejectsBadConfig(t *testing.T) {
	if _, err := NewGroup(Global, Global, nil, 0); err == nil {
		t.Fatal("empty lengths accepted")
	}
	if _, err := NewGroup(Global, Global, []int{40}, 0); err == nil {
		t.Fatal("oversized history accepted")
	}
	if _, err := NewGroup(Global, Global, []int{4}, 2); err == nil {
		t.Fatal("tiny tables accepted")
	}
}

func TestGroupLengthsSortedCopy(t *testing.T) {
	g, err := NewGroup(Global, Global, []int{12, 4, 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ls := g.Lengths()
	if ls[0] != 4 || ls[1] != 8 || ls[2] != 12 {
		t.Fatalf("Lengths() = %v, want ascending", ls)
	}
	ls[0] = 99
	if g.Lengths()[0] != 4 {
		t.Fatal("Lengths() exposed internal slice")
	}
}

func TestScopeString(t *testing.T) {
	if Global.String() != "G" || PerAddress.String() != "P" {
		t.Fatal("scope strings wrong")
	}
}

func TestGroupName(t *testing.T) {
	g, err := NewGroup(PerAddress, Global, []int{4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "PAg" {
		t.Fatalf("group name = %q", g.Name())
	}
}

// TestGroupMatchesReferenceUnderAliasing drives each standard variant's
// Group through RecordAll against independent reference Predictors in
// both counter layouts: hashed tables (every variant at 16-entry tables,
// and the per-address-table variants throughout) and dense context
// classes (the global-table variants at 256-entry tables with histories
// up to 8, and at the default table size). Three quarters of the stream
// is one hot branch, taken 70,000 times and then never, so its order-0
// entry passes entryMax and halves: a halving off by one moves the point
// where its history-0 prediction turns to not-taken, which the groups
// carry beside the standard lengths. The rest spreads over 4096 branches,
// enough distinct contexts that every order's table aliases at 16 and 256
// entries (the global-table orders that have at most 16 contexts
// excepted), so dense classes shared by colliding contexts are exercised.
// A Reset and a second interval follow on the same groups.
func TestGroupMatchesReferenceUnderAliasing(t *testing.T) {
	const n = 150_000
	outs := make([]Outcome, n)
	x := uint64(7)
	hot := 0
	for i := range outs {
		x = x*6364136223846793005 + 1442695040888963407
		if x>>62 != 0 {
			outs[i] = Outcome{PC: 0x400000, Taken: hot < 70_000}
			hot++
			continue
		}
		outs[i] = Outcome{PC: 0x400000 + (x>>40)%4096*4, Taken: (x>>61)&1 == 1 || x%3 == 0}
	}
	cases := []struct {
		tableBits int
		lengths   []int
	}{
		{4, []int{0, 4, 8, 12}},
		{8, []int{0, 4, 8}},
		{0, []int{0, 4, 8, 12}},
	}
	for _, c := range cases {
		maxLen := c.lengths[len(c.lengths)-1]
		var groups []*Group
		for _, cfg := range StandardConfigs() {
			if cfg.MaxHistory != 12 {
				continue
			}
			g, err := NewGroup(cfg.HistoryScope, cfg.TableScope, c.lengths, c.tableBits)
			if err != nil {
				t.Fatal(err)
			}
			if dense := g.tableScope == Global && maxLen <= int(g.tableBits); (g.classes != nil) != dense {
				t.Fatalf("tableBits %d %s: dense layout %v, want %v", c.tableBits, g.Name(), g.classes != nil, dense)
			}
			groups = append(groups, g)
		}
		for round := 0; round < 2; round++ {
			for _, g := range groups {
				if round > 0 {
					g.Reset()
				}
				for lo := 0; lo < n; lo += 4096 {
					g.RecordAll(outs[lo:min(lo+4096, n)])
				}
			}
			for _, g := range groups {
				if sum := order0Total(g); sum >= n {
					t.Fatalf("tableBits %d %s: order-0 totals sum to %d of %d outcomes; no entry halved",
						c.tableBits, g.Name(), sum, n)
				}
				for li, h := range g.Lengths() {
					cfg := Config{HistoryScope: g.histScope, TableScope: g.tableScope, MaxHistory: h, TableBits: c.tableBits}
					ref := mustNew(t, cfg)
					// aliased[o] records whether two distinct contexts of
					// order o shared a table entry.
					aliased := make([]bool, h+1)
					owner := make([]map[uint64][2]uint64, h+1)
					for o := range owner {
						owner[o] = map[uint64][2]uint64{}
					}
					checkAlias := c.tableBits != 0 && h == maxLen && round == 0
					for i, out := range outs {
						if checkAlias && i < 20_000 {
							hist := *ref.history(out.PC)
							pc := uint64(0)
							if g.tableScope == PerAddress {
								pc = out.PC
							}
							for o := 0; o <= h; o++ {
								key := [2]uint64{hist & (1<<uint(o) - 1), pc}
								idx := ref.index(o, hist, out.PC)
								if k, ok := owner[o][idx]; !ok {
									owner[o][idx] = key
								} else if k != key {
									aliased[o] = true
								}
							}
						}
						ref.Record(out.PC, out.Taken)
					}
					if got, want := g.MissRates()[li], ref.MissRate(); got != want {
						t.Fatalf("tableBits %d round %d %s-%d: miss rate %v, reference %v",
							c.tableBits, round, g.Name(), h, got, want)
					}
					if !checkAlias {
						continue
					}
					for o, a := range aliased {
						if !a && (g.tableScope == PerAddress || o >= 5) {
							t.Fatalf("tableBits %d %s order %d: no two contexts aliased; test is vacuous",
								c.tableBits, g.Name(), o)
						}
					}
				}
			}
		}
	}
}

// order0Total sums the order-0 entries' outcome totals, whichever
// counter layout the group uses.
func order0Total(g *Group) uint64 {
	var sum uint64
	for _, e := range g.table(0) {
		sum += uint64(uint16(e))
	}
	return sum
}

// TestDenseGroupsConcurrentConstruction builds dense groups from several
// goroutines at once, as characterize's workers do with their analyzers:
// the shared context-class maps must be built once, race-free, and serve
// every group identically.
func TestDenseGroupsConcurrentConstruction(t *testing.T) {
	stream := outcomeStream(5, 4000)
	const workers = 6
	rates := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g, err := NewGroup(PerAddress, Global, []int{4, 8, 12}, 12+w%3)
			if err != nil {
				t.Error(err)
				return
			}
			g.RecordAll(stream)
			rates[w] = g.MissRates()
		}(w)
	}
	wg.Wait()
	for w, got := range rates {
		g, err := NewGroup(PerAddress, Global, []int{4, 8, 12}, 12+w%3)
		if err != nil {
			t.Fatal(err)
		}
		if g.classes == nil {
			t.Fatalf("tableBits %d: group is not dense", 12+w%3)
		}
		g.RecordAll(stream)
		for i, r := range g.MissRates() {
			if got == nil || got[i] != r {
				t.Fatalf("worker %d: concurrently built group's miss rates %v, sequential %v", w, got, g.MissRates())
			}
		}
	}
}
