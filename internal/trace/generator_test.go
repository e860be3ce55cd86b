package trace

import (
	"math"
	"testing"

	"repro/internal/isa"
)

func collect(t *testing.T, b *PhaseBehavior, seed uint64, n int) []isa.Instruction {
	t.Helper()
	out := make([]isa.Instruction, 0, n)
	if err := GenerateInterval(b, seed, n, func(ins *isa.Instruction) {
		out = append(out, *ins)
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestGenerateIntervalLength(t *testing.T) {
	b := validBehavior()
	got := collect(t, &b, 1, 1234)
	if len(got) != 1234 {
		t.Fatalf("generated %d instructions, want 1234", len(got))
	}
}

func TestGenerateIntervalRejectsBadLength(t *testing.T) {
	b := validBehavior()
	if err := GenerateInterval(&b, 1, 0, func(*isa.Instruction) {}); err == nil {
		t.Fatal("zero-length interval accepted")
	}
	if err := GenerateInterval(&b, 1, -5, func(*isa.Instruction) {}); err == nil {
		t.Fatal("negative-length interval accepted")
	}
}

func TestGenerateIntervalRejectsInvalidBehavior(t *testing.T) {
	b := validBehavior()
	b.CodeSize = 0
	if err := GenerateInterval(&b, 1, 10, func(*isa.Instruction) {}); err == nil {
		t.Fatal("invalid behaviour accepted")
	}
}

func TestDeterminism(t *testing.T) {
	b := validBehavior()
	a := collect(t, &b, 77, 5000)
	c := collect(t, &b, 77, 5000)
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("instruction %d differs between identical runs:\n%v\n%v", i, &a[i], &c[i])
		}
	}
}

func TestSeedChangesStream(t *testing.T) {
	b := validBehavior()
	a := collect(t, &b, 1, 2000)
	c := collect(t, &b, 2, 2000)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > len(a)/2 {
		t.Fatalf("different seeds produced %d/%d identical instructions", same, len(a))
	}
}

func TestMixConvergence(t *testing.T) {
	b := validBehavior()
	b.Jitter = 0 // measure the spec itself
	mix, err := b.Mix.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	const n = 200000
	var counts [isa.NumOpClasses]int
	for _, ins := range collect(t, &b, 3, n) {
		counts[ins.Op]++
	}
	for c := 0; c < isa.NumOpClasses; c++ {
		got := float64(counts[c]) / n
		want := mix[c]
		// The low-discrepancy static layout keeps loop bodies close to
		// the specified mix; PC revisit weighting adds modest skew.
		if math.Abs(got-want) > 0.05+0.3*want {
			t.Errorf("class %v: got %.4f, spec %.4f", isa.OpClass(c), got, want)
		}
	}
}

func TestBranchTakenRate(t *testing.T) {
	b := validBehavior()
	b.Jitter = 0
	b.Branch = BranchSpec{TakenBias: 0.8, PatternPeriod: 10, NoiseLevel: 0}
	// The dynamic (execution-weighted) rate over-counts branches inside
	// hot loops, so validate the mechanism on the per-static-branch mean
	// instead.
	takenBy := map[uint64]int{}
	totalBy := map[uint64]int{}
	for _, ins := range collect(t, &b, 5, 200000) {
		if ins.Op.IsConditional() {
			totalBy[ins.PC]++
			if ins.Taken {
				takenBy[ins.PC]++
			}
		}
	}
	var sum float64
	var n int
	for pc, tot := range totalBy {
		if tot < 20 {
			continue
		}
		sum += float64(takenBy[pc]) / float64(tot)
		n++
	}
	if n == 0 {
		t.Fatal("no branch executed often enough")
	}
	if rate := sum / float64(n); math.Abs(rate-0.8) > 0.08 {
		t.Fatalf("mean per-branch taken rate = %.3f over %d branches, want ~0.8", rate, n)
	}
}

func TestBernoulliBranchesUnbiased(t *testing.T) {
	b := validBehavior()
	b.Jitter = 0
	b.Branch = BranchSpec{TakenBias: 0.5, PatternPeriod: 0}
	taken, total := 0, 0
	for _, ins := range collect(t, &b, 5, 100000) {
		if ins.Op.IsConditional() {
			total++
			if ins.Taken {
				taken++
			}
		}
	}
	rate := float64(taken) / float64(total)
	if math.Abs(rate-0.5) > 0.05 {
		t.Fatalf("Bernoulli taken rate = %.3f", rate)
	}
}

func TestMemoryAddressesWithinRegions(t *testing.T) {
	b := validBehavior()
	b.Jitter = 0.2 // jitter may enlarge regions a bit; bound generously
	for _, ins := range collect(t, &b, 9, 50000) {
		switch {
		case ins.Op.IsMemRead(), ins.Op.IsMemWrite():
			if ins.Addr < DataBase {
				t.Fatalf("data address %#x below data base", ins.Addr)
			}
		}
	}
}

func TestPCStaysInCode(t *testing.T) {
	b := validBehavior()
	limit := CodeBase + uint64(b.CodeSize)*isa.InstrBytes
	for _, ins := range collect(t, &b, 11, 50000) {
		if ins.PC < CodeBase || ins.PC >= limit {
			t.Fatalf("PC %#x outside code [%#x,%#x)", ins.PC, CodeBase, limit)
		}
	}
}

func TestStaticInstructionsConsistent(t *testing.T) {
	// The same PC must always decode to the same operation class within
	// one phase — the synthetic "static code" property.
	b := validBehavior()
	ops := map[uint64]isa.OpClass{}
	for _, ins := range collect(t, &b, 13, 50000) {
		if prev, ok := ops[ins.PC]; ok && prev != ins.Op {
			t.Fatalf("PC %#x decoded as both %v and %v", ins.PC, prev, ins.Op)
		}
		ops[ins.PC] = ins.Op
	}
	if len(ops) < 10 {
		t.Fatalf("only %d static instructions visited", len(ops))
	}
}

func TestControlInstructionsHaveTargets(t *testing.T) {
	b := validBehavior()
	for _, ins := range collect(t, &b, 15, 20000) {
		if ins.Op.IsControl() && ins.Taken && ins.Target == 0 {
			t.Fatalf("taken control transfer without target: %v", &ins)
		}
	}
}

func TestSourcesAreNonZeroRegs(t *testing.T) {
	b := validBehavior()
	for _, ins := range collect(t, &b, 17, 20000) {
		for _, r := range ins.Sources() {
			if r == isa.ZeroReg || r >= isa.NumRegs {
				t.Fatalf("source register %d out of range", r)
			}
		}
		if ins.Dst >= isa.NumRegs {
			t.Fatalf("destination register %d out of range", ins.Dst)
		}
	}
}

func TestStoreAndControlNeverWriteRegs(t *testing.T) {
	b := validBehavior()
	for _, ins := range collect(t, &b, 19, 20000) {
		if (ins.Op == isa.OpStore || ins.Op.IsControl() || ins.Op == isa.OpNop) && ins.WritesReg() {
			t.Fatalf("%v writes register r%d", ins.Op, ins.Dst)
		}
	}
}

func TestStridePatternLocality(t *testing.T) {
	// A pure unit-stride phase must produce overwhelmingly small global
	// load strides.
	b := validBehavior()
	b.Jitter = 0
	b.Loads = []AccessPattern{{Kind: PatternStride, Weight: 1, Region: 1 << 20, Stride: 8}}
	var lastAddr uint64
	have := false
	small, total := 0, 0
	for _, ins := range collect(t, &b, 21, 100000) {
		if !ins.Op.IsMemRead() {
			continue
		}
		if have {
			d := int64(ins.Addr) - int64(lastAddr)
			if d < 0 {
				d = -d
			}
			total++
			if d <= 64 {
				small++
			}
		}
		lastAddr, have = ins.Addr, true
	}
	if total == 0 {
		t.Fatal("no loads")
	}
	if frac := float64(small) / float64(total); frac < 0.95 {
		t.Fatalf("unit-stride phase has only %.2f small global strides", frac)
	}
}

func TestChasePatternCoversRegion(t *testing.T) {
	b := validBehavior()
	b.Jitter = 0
	region := uint64(1 << 14) // 16 KiB = 2048 slots
	b.Loads = []AccessPattern{{Kind: PatternChase, Weight: 1, Region: region}}
	seen := map[uint64]bool{}
	for _, ins := range collect(t, &b, 23, 60000) {
		if ins.Op.IsMemRead() {
			seen[ins.Addr] = true
		}
	}
	// The full-period LCG walk should touch a large share of the slots.
	if len(seen) < 1000 {
		t.Fatalf("chase walk touched only %d distinct addresses", len(seen))
	}
}

func TestMeanDepDistRoughlyHonored(t *testing.T) {
	for _, mean := range []float64{2, 24} {
		b := validBehavior()
		b.Jitter = 0
		b.Reg.MeanDepDist = mean
		b.Reg.WriteFraction = 1 // every producer writes: distances are exact
		lastWrite := map[uint8]int{}
		var sum float64
		var count int
		instrs := collect(t, &b, 29, 100000)
		for i, ins := range instrs {
			for _, r := range ins.Sources() {
				if w, ok := lastWrite[r]; ok {
					sum += float64(i - w)
					count++
				}
			}
			if ins.WritesReg() {
				lastWrite[ins.Dst] = i
			}
		}
		got := sum / float64(count)
		// The generator remaps distances through the ring of actual
		// writers, so allow a wide band; what matters is ordering.
		if mean == 2 && got > 8 {
			t.Fatalf("short-dep phase measured mean %v", got)
		}
		if mean == 24 && got < 10 {
			t.Fatalf("long-dep phase measured mean %v", got)
		}
	}
}

func TestEmittedCount(t *testing.T) {
	b := validBehavior()
	g, err := NewGenerator(&b, 5)
	if err != nil {
		t.Fatal(err)
	}
	var ins isa.Instruction
	for i := 0; i < 123; i++ {
		g.Next(&ins)
	}
	if g.Emitted() != 123 {
		t.Fatalf("Emitted() = %d, want 123", g.Emitted())
	}
}

func TestBranchPatternPredictability(t *testing.T) {
	// A noiseless periodic branch pattern must produce per-branch outcome
	// streams that repeat with the assigned period.
	b := validBehavior()
	b.Jitter = 0
	b.Branch = BranchSpec{TakenBias: 0.75, PatternPeriod: 8, NoiseLevel: 0}
	outcomes := map[uint64][]bool{}
	for _, ins := range collect(t, &b, 31, 200000) {
		if ins.Op.IsConditional() {
			outcomes[ins.PC] = append(outcomes[ins.PC], ins.Taken)
		}
	}
	checked := 0
	for pc, seq := range outcomes {
		if len(seq) < 40 {
			continue
		}
		// Find the period: smallest p in [2,16] with seq[i] == seq[i-p].
		found := false
		for p := 2; p <= 16 && !found; p++ {
			ok := true
			for i := p; i < len(seq); i++ {
				if seq[i] != seq[i-p] {
					ok = false
					break
				}
			}
			found = ok
		}
		if !found {
			t.Fatalf("branch %#x outcome stream is not periodic (len %d)", pc, len(seq))
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no branch executed often enough to verify periodicity")
	}
}

// scanSource is the reference dependence-source lookup: probe the ring of
// written destinations (0 = wrote nothing) from d back, up to 16 slots and
// never past the ring, returning the first register found.
func scanSource(ring *[depRingSize]uint8, pos, d int) (uint8, bool) {
	limit := 16
	if rest := depRingSize - d; rest < limit {
		limit = rest
	}
	for probe := 0; probe < limit; probe++ {
		if r := ring[(pos-d-probe)&(depRingSize-1)]; r != 0 {
			return r, true
		}
	}
	return 0, false
}

// TestSourceAtDistanceMatchesScan checks the O(1) producer-ring lookup
// against the probe scan over random write streams of every density, at
// every distance from 1 to 300 (past the ring included), from the first
// instruction on.
func TestSourceAtDistanceMatchesScan(t *testing.T) {
	b := validBehavior()
	for _, wf := range []float64{0, 0.1, 0.5, 1} {
		g, err := NewGenerator(&b, 3)
		if err != nil {
			t.Fatal(err)
		}
		stream := NewRNG(uint64(wf*10) + 11)
		var ring [depRingSize]uint8
		pos := 0
		for i := 0; i < 3000; i++ {
			for d := 1; d <= 300; d++ {
				saved := *g.rng
				got := g.sourceAtDistance(d)
				want, ok := scanSource(&ring, pos, d)
				if !ok {
					fallback := saved
					want = uint8(1 + fallback.Intn(isa.NumRegs-1))
				} else if *g.rng != saved {
					t.Fatalf("write fraction %v, instruction %d, distance %d: a hit drew from the RNG", wf, i, d)
				}
				if got != want {
					t.Fatalf("write fraction %v, instruction %d, distance %d: got r%d, scan r%d (hit %v)",
						wf, i, d, got, want, ok)
				}
				*g.rng = saved
			}
			var dst uint8
			if stream.Bernoulli(wf) {
				dst = uint8(1 + stream.Intn(isa.NumRegs-1))
			}
			g.recordWrite(dst)
			pos = (pos + 1) & (depRingSize - 1)
			ring[pos] = dst
		}
	}
}
