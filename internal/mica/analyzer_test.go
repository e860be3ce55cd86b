package mica

import (
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/mica/ppm"
)

func TestMetricRegistry(t *testing.T) {
	ms := Metrics()
	if len(ms) != NumMetrics || NumMetrics != 69 {
		t.Fatalf("metric count = %d, want 69", len(ms))
	}
	seen := map[string]bool{}
	for i, m := range ms {
		if m.Index != i {
			t.Fatalf("metric %q at position %d has index %d", m.Name, i, m.Index)
		}
		if seen[m.Name] {
			t.Fatalf("duplicate metric name %q", m.Name)
		}
		seen[m.Name] = true
		if m.Description == "" {
			t.Fatalf("metric %q has no description", m.Name)
		}
	}
}

func TestCategoryCounts(t *testing.T) {
	// The paper's Table 1 category split.
	want := map[Category]int{
		CatInstructionMix:       20,
		CatILP:                  4,
		CatRegisterTraffic:      9,
		CatMemoryFootprint:      4,
		CatDataStrides:          18,
		CatBranchPredictability: 14,
	}
	total := 0
	for cat, n := range want {
		got := len(ByCategory(cat))
		if got != n {
			t.Errorf("category %v has %d metrics, want %d", cat, got, n)
		}
		total += got
	}
	if total != NumMetrics {
		t.Fatalf("categories cover %d metrics, want %d", total, NumMetrics)
	}
}

func TestCategoryString(t *testing.T) {
	if CatILP.String() != "ILP" || CatDataStrides.String() != "data stream strides" {
		t.Fatal("category names wrong")
	}
	if Category(99).String() != "category(99)" {
		t.Fatal("unknown category string wrong")
	}
}

func TestMetricByName(t *testing.T) {
	m, ok := MetricByName("GAs_8bits")
	if !ok || m.Category != CatBranchPredictability {
		t.Fatalf("GAs_8bits lookup failed: %+v ok=%v", m, ok)
	}
	if _, ok := MetricByName("nope"); ok {
		t.Fatal("bogus metric name found")
	}
}

func TestMetricNamesOrder(t *testing.T) {
	names := MetricNames()
	if names[IdxMix] != "mix_load" || names[IdxTakenRate] != "br_taken_rate" {
		t.Fatalf("metric name layout wrong: %q %q", names[IdxMix], names[IdxTakenRate])
	}
}

func TestEmptyVectorIsZero(t *testing.T) {
	a := NewAnalyzer()
	v := a.Vector()
	if len(v) != NumMetrics {
		t.Fatalf("vector length %d", len(v))
	}
	for i, x := range v {
		if x != 0 {
			t.Fatalf("metric %d nonzero on empty analyzer: %v", i, x)
		}
	}
}

// feed records a hand-written instruction sequence.
func feed(a *Analyzer, seq []isa.Instruction) {
	for i := range seq {
		a.Record(&seq[i])
	}
}

func TestInstructionMixExact(t *testing.T) {
	a := NewAnalyzer()
	feed(a, []isa.Instruction{
		{Op: isa.OpLoad, Addr: 0x1000},
		{Op: isa.OpLoad, Addr: 0x1008},
		{Op: isa.OpStore, Addr: 0x2000},
		{Op: isa.OpIntAdd},
	})
	v := a.Vector()
	if got := v[IdxMix+int(isa.OpLoad)]; got != 0.5 {
		t.Fatalf("load fraction = %v, want 0.5", got)
	}
	if got := v[IdxMix+int(isa.OpStore)]; got != 0.25 {
		t.Fatalf("store fraction = %v, want 0.25", got)
	}
	if got := v[IdxMix+int(isa.OpIntAdd)]; got != 0.25 {
		t.Fatalf("int_add fraction = %v, want 0.25", got)
	}
}

func TestFootprintCounts(t *testing.T) {
	a := NewAnalyzer()
	feed(a, []isa.Instruction{
		{PC: 0x0, Op: isa.OpLoad, Addr: 0x10000},  // block 0x400, page 0x10
		{PC: 0x4, Op: isa.OpLoad, Addr: 0x10008},  // same block
		{PC: 0x40, Op: isa.OpLoad, Addr: 0x20000}, // new PC block, new data block/page
		{PC: 0x2000, Op: isa.OpStore, Addr: 0x20040},
	})
	v := a.Vector()
	if got := v[IdxFootprint+0]; got != 3 { // PC blocks: 0x0, 0x40(=block1), 0x2000
		t.Fatalf("instr blocks = %v, want 3", got)
	}
	if got := v[IdxFootprint+1]; got != 2 { // PC pages: 0x0, 0x2000
		t.Fatalf("instr pages = %v, want 2", got)
	}
	if got := v[IdxFootprint+2]; got != 3 { // data blocks: 0x10000, 0x20000, 0x20040
		t.Fatalf("data blocks = %v, want 3", got)
	}
	if got := v[IdxFootprint+3]; got != 2 { // data pages: 0x10, 0x20
		t.Fatalf("data pages = %v, want 2", got)
	}
}

func TestInstrFootprintFastPathRevisit(t *testing.T) {
	// Returning to a previously seen block after leaving it must not
	// inflate the count.
	a := NewAnalyzer()
	feed(a, []isa.Instruction{
		{PC: 0x0, Op: isa.OpIntAdd},
		{PC: 0x100, Op: isa.OpIntAdd},
		{PC: 0x0, Op: isa.OpIntAdd},
		{PC: 0x4, Op: isa.OpIntAdd},
	})
	if got := a.Vector()[IdxFootprint+0]; got != 2 {
		t.Fatalf("instr blocks = %v, want 2", got)
	}
}

func TestGlobalAndLocalStrides(t *testing.T) {
	a := NewAnalyzer()
	// Two static loads: PC 0x0 strides by 8 (local stride 8); PC 0x4
	// jumps far. Global strides alternate between small and huge.
	feed(a, []isa.Instruction{
		{PC: 0x0, Op: isa.OpLoad, Addr: 0x1000},
		{PC: 0x4, Op: isa.OpLoad, Addr: 0x50000000},
		{PC: 0x0, Op: isa.OpLoad, Addr: 0x1008},
		{PC: 0x4, Op: isa.OpLoad, Addr: 0x90000000},
		{PC: 0x0, Op: isa.OpLoad, Addr: 0x1010},
	})
	v := a.Vector()
	// Local strides: PC 0x0 gave 8, 8; PC 0x4 gave 0x40000000. So 2 of 3
	// are <= 8.
	if got := v[IdxStrides+1]; math.Abs(got-2.0/3) > 1e-9 { // lls_8
		t.Fatalf("lls_8 = %v, want 2/3", got)
	}
	// Global strides: 4 deltas, all huge except none small.
	if got := v[IdxStrides+10]; got != 0 { // gls_64
		t.Fatalf("gls_64 = %v, want 0", got)
	}
	if got := v[IdxStrides+13]; got != 0 { // gls_16M: all deltas exceed 16M? 0x4FFFF000 > 16M yes
		t.Fatalf("gls_16777216 = %v, want 0", got)
	}
}

func TestStrideCumulativeMonotone(t *testing.T) {
	a := NewAnalyzer()
	// Mixed strides through one PC.
	addrs := []uint64{0x1000, 0x1000, 0x1008, 0x1048, 0x2048, 0x100000, 0x20000000}
	for _, ad := range addrs {
		a.Record(&isa.Instruction{PC: 0x8, Op: isa.OpLoad, Addr: ad})
	}
	v := a.Vector()
	prev := 0.0
	for i := 0; i < len(LocalStrideBounds); i++ {
		cur := v[IdxStrides+i]
		if cur < prev-1e-12 {
			t.Fatalf("local load stride cumulative not monotone at %d: %v < %v", i, cur, prev)
		}
		prev = cur
	}
	if v[IdxStrides+0] != 1.0/6 { // one zero-stride of six deltas
		t.Fatalf("lls_0 = %v, want 1/6", v[IdxStrides+0])
	}
}

func TestStoreStridesSeparateFromLoads(t *testing.T) {
	a := NewAnalyzer()
	feed(a, []isa.Instruction{
		{PC: 0x0, Op: isa.OpStore, Addr: 0x1000},
		{PC: 0x0, Op: isa.OpStore, Addr: 0x1008},
		{PC: 0x4, Op: isa.OpLoad, Addr: 0x9000},
		{PC: 0x4, Op: isa.OpLoad, Addr: 0x90000},
	})
	v := a.Vector()
	if got := v[IdxStrides+len(LocalStrideBounds)+1]; got != 1 { // lss_8
		t.Fatalf("lss_8 = %v, want 1", got)
	}
	if got := v[IdxStrides+1]; got != 0 { // lls_8: the load stride is large
		t.Fatalf("lls_8 = %v, want 0", got)
	}
}

func TestRegisterTraffic(t *testing.T) {
	a := NewAnalyzer()
	feed(a, []isa.Instruction{
		{Op: isa.OpIntAdd, Dst: 1}, // write r1
		{Op: isa.OpIntAdd, Dst: 2, Src: [isa.MaxSrcRegs]uint8{1}, NSrc: 1},    // dist 1
		{Op: isa.OpIntAdd, Dst: 0, Src: [isa.MaxSrcRegs]uint8{1, 2}, NSrc: 2}, // dists 2,1
		{Op: isa.OpNop},
	})
	v := a.Vector()
	if got := v[IdxRegAvgSrc]; got != 0.75 { // 3 source operands / 4 instructions
		t.Fatalf("avg src operands = %v, want 0.75", got)
	}
	if got := v[IdxRegUse]; got != 1.5 { // 3 reads / 2 writes
		t.Fatalf("degree of use = %v, want 1.5", got)
	}
	if got := v[IdxRegDep+0]; math.Abs(got-2.0/3) > 1e-9 { // two distance-1 deps of three
		t.Fatalf("reg_dep_1 = %v, want 2/3", got)
	}
	if got := v[IdxRegDep+1]; math.Abs(got-1.0/3) > 1e-9 { // one distance-2 dep
		t.Fatalf("reg_dep_2 = %v, want 1/3", got)
	}
}

func TestZeroRegSourceIgnored(t *testing.T) {
	a := NewAnalyzer()
	feed(a, []isa.Instruction{
		{Op: isa.OpIntAdd, Dst: 1},
		{Op: isa.OpIntAdd, Dst: 2, Src: [isa.MaxSrcRegs]uint8{isa.ZeroReg}, NSrc: 1},
	})
	if got := a.Vector()[IdxRegAvgSrc]; got != 0 {
		t.Fatalf("zero-reg source counted: %v", got)
	}
}

func TestBranchRates(t *testing.T) {
	a := NewAnalyzer()
	// One static branch: T N T N -> taken rate 0.5, transition rate 1.
	for i := 0; i < 4; i++ {
		a.Record(&isa.Instruction{PC: 0x10, Op: isa.OpBranchCond, Taken: i%2 == 0})
	}
	// Another: always taken -> transitions 0.
	for i := 0; i < 4; i++ {
		a.Record(&isa.Instruction{PC: 0x20, Op: isa.OpBranchCond, Taken: true})
	}
	v := a.Vector()
	if got := v[IdxTakenRate]; got != 0.75 { // 6 of 8 taken
		t.Fatalf("taken rate = %v, want 0.75", got)
	}
	if got := v[IdxTransRate]; got != 0.5 { // 3 transitions of 6 eligible pairs
		t.Fatalf("transition rate = %v, want 0.5", got)
	}
}

func TestPPMRatesPopulated(t *testing.T) {
	a := NewAnalyzer()
	// An alternating branch is nearly perfectly predictable for PPM.
	for i := 0; i < 4000; i++ {
		a.Record(&isa.Instruction{PC: 0x10, Op: isa.OpBranchCond, Taken: i%2 == 0})
	}
	v := a.Vector()
	for i := 0; i < 12; i++ {
		if rate := v[IdxPPM+i]; rate > 0.05 {
			t.Fatalf("PPM metric %d = %v on alternating branch", i, rate)
		}
	}
}

func TestUnconditionalBranchesNotCounted(t *testing.T) {
	a := NewAnalyzer()
	feed(a, []isa.Instruction{
		{PC: 0x0, Op: isa.OpBranchJump, Taken: true, Target: 0x100},
		{PC: 0x4, Op: isa.OpCall, Taken: true, Target: 0x200},
	})
	v := a.Vector()
	if v[IdxTakenRate] != 0 {
		t.Fatal("unconditional transfers leaked into taken rate")
	}
}

func TestResetClearsEverything(t *testing.T) {
	a := NewAnalyzer()
	feed(a, []isa.Instruction{
		{PC: 0x0, Op: isa.OpLoad, Addr: 0x1000, Dst: 1},
		{PC: 0x4, Op: isa.OpBranchCond, Taken: true},
		{PC: 0x8, Op: isa.OpStore, Addr: 0x2000, Src: [isa.MaxSrcRegs]uint8{1}, NSrc: 1},
	})
	a.Reset()
	if a.Total() != 0 {
		t.Fatal("Total nonzero after Reset")
	}
	v := a.Vector()
	for i, x := range v {
		if x != 0 {
			t.Fatalf("metric %d = %v after Reset", i, x)
		}
	}
}

func TestTotalCounts(t *testing.T) {
	a := NewAnalyzer()
	for i := 0; i < 57; i++ {
		a.Record(&isa.Instruction{Op: isa.OpNop})
	}
	if a.Total() != 57 {
		t.Fatalf("Total = %d", a.Total())
	}
}

func TestVectorILPPopulated(t *testing.T) {
	a := NewAnalyzer()
	for i := 0; i < 5000; i++ {
		a.Record(&isa.Instruction{Op: isa.OpIntAdd, Dst: uint8(1 + i%8), Src: [isa.MaxSrcRegs]uint8{uint8(1 + i%8)}, NSrc: 1})
	}
	v := a.Vector()
	if v[IdxILP] <= 0 {
		t.Fatal("ILP metric empty")
	}
	for i := 1; i < 4; i++ {
		if v[IdxILP+i] < v[IdxILP+i-1]-1e-9 {
			t.Fatalf("ILP not monotone in window: %v", v[IdxILP:IdxILP+4])
		}
	}
}

func TestPaperKeyCharacteristics(t *testing.T) {
	ms := PaperKeyCharacteristics()
	if len(ms) != 12 {
		t.Fatalf("paper key set has %d characteristics, want 12", len(ms))
	}
	seen := map[string]bool{}
	cats := map[Category]bool{}
	for _, m := range ms {
		if seen[m.Name] {
			t.Fatalf("duplicate key characteristic %q", m.Name)
		}
		seen[m.Name] = true
		cats[m.Category] = true
	}
	// The paper's Table 2 spans mix, branch predictability, register
	// traffic, footprint and strides.
	for _, want := range []Category{CatInstructionMix, CatBranchPredictability,
		CatRegisterTraffic, CatMemoryFootprint, CatDataStrides} {
		if !cats[want] {
			t.Fatalf("paper key set missing category %v", want)
		}
	}
}

// stagingStream is a deterministic instruction stream in which about half
// the instructions are conditional branches over 64 PCs, the rest loads,
// stores and register arithmetic, so every metric family sees work.
func stagingStream(n int) []isa.Instruction {
	out := make([]isa.Instruction, n)
	x := uint64(11)
	for i := range out {
		x = x*6364136223846793005 + 1442695040888963407
		r := uint8(1 + x>>20%16)
		pc := 0x400000 + x>>32%64*4
		switch x >> 60 % 4 {
		case 0, 1:
			out[i] = isa.Instruction{PC: pc, Op: isa.OpBranchCond, Taken: x>>40%3 != 0 || i%5 == 0}
		case 2:
			out[i] = isa.Instruction{PC: pc, Op: isa.OpLoad, Dst: r, Src: [isa.MaxSrcRegs]uint8{r + 1}, NSrc: 1, Addr: x >> 24 % (1 << 20)}
		default:
			out[i] = isa.Instruction{PC: pc, Op: isa.OpIntAdd, Dst: r, Src: [isa.MaxSrcRegs]uint8{r, r + 2}, NSrc: 2}
		}
	}
	return out
}

// TestStagedOutcomesMatchPredictors pins the analyzer's branch-outcome
// staging: Record and RecordBatch interleaved in uneven chunks, Vector
// read mid-interval with recording carrying on, and more conditional
// branches than maxStagedOutcomes, so the stage also replays early. At
// every Vector the twelve PPM metrics must equal one independent
// ppm.Predictor per standard configuration fed the same outcomes, and the
// other 57 metrics must be bit-identical to an analyzer fed block by
// block through RecordBatch alone. A Reset with outcomes still staged
// must discard them.
func TestStagedOutcomesMatchPredictors(t *testing.T) {
	stream := stagingStream(4 * maxStagedOutcomes)

	mixed := NewAnalyzer()
	// Outcomes staged before a Reset must not reach the predictors.
	feed(mixed, stagingStream(1000))
	mixed.Reset()

	var preds []*ppm.Predictor
	for _, cfg := range ppm.StandardConfigs() {
		p, err := ppm.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		preds = append(preds, p)
	}
	block := NewAnalyzer()
	// pending counts the branches since the last Vector; longest is its
	// maximum, which must pass the stage's bound.
	vectors, pending, longest := 0, 0, 0
	for lo, step := 0, 0; lo < len(stream); step++ {
		hi := min(lo+1+step*997%7000, len(stream))
		chunk := stream[lo:hi]
		if step%3 == 0 {
			feed(mixed, chunk)
		} else {
			mixed.RecordBatch(chunk)
		}
		for i := range chunk {
			if chunk[i].Op.IsConditional() {
				pending++
				for _, p := range preds {
					p.Record(chunk[i].PC, chunk[i].Taken)
				}
			}
		}
		lo = hi
		if step != 1 && step != 5 && lo < len(stream) {
			continue
		}
		longest, pending = max(longest, pending), 0
		// The per-block control sees the same prefix in 4096-instruction
		// blocks from a fresh analyzer.
		block.Reset()
		for b := 0; b < lo; b += 4096 {
			block.RecordBatch(stream[b:min(b+4096, lo)])
		}
		got, want := mixed.Vector(), block.Vector()
		vectors++
		for i := range got {
			if i >= IdxPPM && i < IdxPPM+len(preds) {
				if r := preds[i-IdxPPM].MissRate(); got[i] != r {
					t.Fatalf("after %d instructions: %s = %v, independent predictor %v",
						lo, Metrics()[i].Name, got[i], r)
				}
				continue
			}
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("after %d instructions: %s = %v, per-block path %v",
					lo, Metrics()[i].Name, got[i], want[i])
			}
		}
	}
	if vectors != 3 || longest <= maxStagedOutcomes {
		t.Fatalf("compared %d vectors, at most %d branches apart; want 3, more than %d apart",
			vectors, longest, maxStagedOutcomes)
	}
}
