package mica

import (
	"math/bits"

	"repro/internal/isa"
	"repro/internal/mica/ilp"
	"repro/internal/mica/ppm"
)

// Analyzer consumes an instruction stream and produces the 69-element MICA
// characteristic vector for it. Feed it one interval (or a whole program,
// for an aggregate characterization), read Vector, then Reset to reuse.
//
// All per-interval state — the footprint sets, the per-PC stride and
// branch-outcome tables, the predictor tables — is cleared in place by
// Reset rather than reallocated, so a long-lived analyzer settles into a
// steady state with no per-interval allocation at all.
type Analyzer struct {
	total    uint64
	opCounts [isa.NumOpClasses]uint64

	ilp *ilp.Analyzer

	// Register traffic.
	srcOperands uint64
	regWrites   uint64
	depBins     [8]uint64 // 7 bounded bins + overflow
	depTotal    uint64
	lastWriter  [isa.NumRegs]uint64
	writerValid [isa.NumRegs]bool

	// Memory footprint.
	instrBlocks u64Set
	instrPages  u64Set
	dataBlocks  u64Set
	dataPages   u64Set

	// Strides.
	lastLoadAddr   uint64
	haveLoad       bool
	lastStoreAddr  uint64
	haveStore      bool
	lastLoadByPC   u64Map   // PC -> last load address
	lastStoreByPC  u64Map   // PC -> last store address
	localLoadBins  []uint64 // len(LocalStrideBounds)+1, last = beyond
	localStoreBins []uint64
	globalLoadBins []uint64 // len(GlobalStrideBounds)+1
	globalStoreBin []uint64
	localLoadCnt   uint64
	localStoreCnt  uint64
	globalLoadCnt  uint64
	globalStoreCnt uint64

	// Branch behaviour.
	condBranches uint64
	condTaken    uint64
	transitions  uint64
	transPairs   uint64
	lastOutcome  u64Map // PC -> 0/1 last outcome
	predictors   []ppm.Group
	// outcomes stages the conditional branches the predictors have not
	// seen yet, in stream order. They are replayed through each predictor
	// group at VectorInto, or early once maxStagedOutcomes accumulate, so
	// each order's table is swept once per interval rather than once per
	// block.
	outcomes []ppm.Outcome

	// Fast paths: last-seen instruction block/page (instruction fetch is
	// highly sequential, so most table probes can be skipped).
	lastInstrBlock uint64
	lastInstrPage  uint64
	haveInstr      bool
}

// maxStagedOutcomes bounds the staged branch outcomes: far above one
// default interval's conditional branches, so an interval replays in one
// go, while an aggregate analyzer fed a whole program stays bounded.
const maxStagedOutcomes = 1 << 14

// NewAnalyzer returns a ready-to-use analyzer.
func NewAnalyzer() *Analyzer {
	a := &Analyzer{}
	var err error
	a.ilp, err = ilp.NewAnalyzer(ilp.StandardWindows)
	if err != nil {
		panic("mica: standard ILP windows invalid: " + err.Error())
	}
	a.predictors = ppm.StandardGroups()
	a.localLoadBins = make([]uint64, len(LocalStrideBounds)+1)
	a.localStoreBins = make([]uint64, len(LocalStrideBounds)+1)
	a.globalLoadBins = make([]uint64, len(GlobalStrideBounds)+1)
	a.globalStoreBin = make([]uint64, len(GlobalStrideBounds)+1)
	a.instrBlocks.initSet(10)
	a.instrPages.initSet(6)
	a.dataBlocks.initSet(12)
	a.dataPages.initSet(8)
	a.lastLoadByPC.initMap(10)
	a.lastStoreByPC.initMap(10)
	a.lastOutcome.initMap(10)
	return a
}

// Reset clears all measurement state so the analyzer can characterize a
// fresh interval. Every table keeps its capacity.
func (a *Analyzer) Reset() {
	a.total = 0
	clear(a.opCounts[:])
	a.ilp.Reset()
	a.srcOperands = 0
	a.regWrites = 0
	clear(a.depBins[:])
	a.depTotal = 0
	clear(a.lastWriter[:])
	clear(a.writerValid[:])
	a.instrBlocks.Clear()
	a.instrPages.Clear()
	a.dataBlocks.Clear()
	a.dataPages.Clear()
	a.lastLoadByPC.Clear()
	a.lastStoreByPC.Clear()
	a.haveLoad = false
	a.haveStore = false
	clear(a.localLoadBins)
	clear(a.localStoreBins)
	clear(a.globalLoadBins)
	clear(a.globalStoreBin)
	a.localLoadCnt = 0
	a.localStoreCnt = 0
	a.globalLoadCnt = 0
	a.globalStoreCnt = 0
	a.condBranches = 0
	a.condTaken = 0
	a.transitions = 0
	a.transPairs = 0
	a.lastOutcome.Clear()
	a.outcomes = a.outcomes[:0]
	for i := range a.predictors {
		a.predictors[i].Reset()
	}
	a.haveInstr = false
}

// RecordBatch accounts a block of dynamically executed instructions, in
// order. It is the hot-path entry point of the batched generate→measure
// kernel and is equivalent to calling Record on each instruction: the
// scalar statistics and the ILP window models observe disjoint state, so
// running them as separate passes over the batch — each with its working
// set resident — cannot change any result. The block's conditional
// branches join the staged outcomes, which the predictors replay at
// VectorInto (see outcomes), so mixing Record and RecordBatch keeps
// stream order.
func (a *Analyzer) RecordBatch(batch []isa.Instruction) {
	if len(batch) == 0 {
		return
	}
	for i := range batch {
		a.recordScalar(&batch[i])
	}
	a.ilp.RecordBatch(batch)
}

// Record accounts one dynamically executed instruction.
func (a *Analyzer) Record(ins *isa.Instruction) {
	a.recordScalar(ins)
	a.ilp.Record(ins)
}

// replayOutcomes runs the staged branch outcomes through every predictor
// group and empties the stage.
func (a *Analyzer) replayOutcomes() {
	if len(a.outcomes) == 0 {
		return
	}
	for i := range a.predictors {
		a.predictors[i].RecordAll(a.outcomes)
	}
	a.outcomes = a.outcomes[:0]
}

// recordScalar accounts everything except the ILP models: instruction
// mix, footprints, register traffic, strides and raw branch statistics,
// and it stages conditional branches for the PPM predictors.
func (a *Analyzer) recordScalar(ins *isa.Instruction) {
	a.opCounts[ins.Op]++

	// Instruction-stream footprint (fast path: consecutive PCs share a
	// block most of the time).
	if blk := ins.PC / isa.BlockSize; !a.haveInstr || blk != a.lastInstrBlock {
		a.instrBlocks.Add(blk)
		a.lastInstrBlock = blk
		if pg := ins.PC / isa.PageSize; !a.haveInstr || pg != a.lastInstrPage {
			a.instrPages.Add(pg)
			a.lastInstrPage = pg
		}
		a.haveInstr = true
	}

	// Register traffic: operand counts and dependency distances.
	for _, r := range ins.Sources() {
		if r == isa.ZeroReg {
			continue
		}
		a.srcOperands++
		if a.writerValid[r] {
			d := a.total - a.lastWriter[r]
			a.depTotal++
			a.depBins[depBin(d)]++
		}
	}
	if ins.WritesReg() {
		a.regWrites++
		a.lastWriter[ins.Dst] = a.total
		a.writerValid[ins.Dst] = true
	}

	// Data stream.
	switch {
	case ins.Op.IsMemRead():
		a.recordData(ins.Addr)
		if a.haveLoad {
			a.globalLoadBins[strideBin(ins.Addr, a.lastLoadAddr, GlobalStrideBounds)]++
			a.globalLoadCnt++
		}
		a.lastLoadAddr, a.haveLoad = ins.Addr, true
		if prev, ok := a.lastLoadByPC.Swap(ins.PC, ins.Addr); ok {
			a.localLoadBins[strideBin(ins.Addr, prev, LocalStrideBounds)]++
			a.localLoadCnt++
		}
	case ins.Op.IsMemWrite():
		a.recordData(ins.Addr)
		if a.haveStore {
			a.globalStoreBin[strideBin(ins.Addr, a.lastStoreAddr, GlobalStrideBounds)]++
			a.globalStoreCnt++
		}
		a.lastStoreAddr, a.haveStore = ins.Addr, true
		if prev, ok := a.lastStoreByPC.Swap(ins.PC, ins.Addr); ok {
			a.localStoreBins[strideBin(ins.Addr, prev, LocalStrideBounds)]++
			a.localStoreCnt++
		}
	}

	// Branch behaviour (conditional branches only).
	if ins.Op.IsConditional() {
		a.condBranches++
		var out uint64
		if ins.Taken {
			a.condTaken++
			out = 1
		}
		if prev, ok := a.lastOutcome.Swap(ins.PC, out); ok {
			a.transPairs++
			if prev != out {
				a.transitions++
			}
		}
		a.outcomes = append(a.outcomes, ppm.Outcome{PC: ins.PC, Taken: ins.Taken})
		if len(a.outcomes) == maxStagedOutcomes {
			a.replayOutcomes()
		}
	}

	a.total++
}

// recordData tracks only the block set online; the page footprint is
// recovered from it in Vector (a page is a fixed group of blocks), which
// saves a second hash insert on every memory access.
func (a *Analyzer) recordData(addr uint64) {
	a.dataBlocks.Add(addr / isa.BlockSize)
}

// depBin maps a dependency distance to its bin: 7 bounded bins plus an
// overflow bin (the overflow bin is not itself a metric; it completes the
// distribution's denominator). DepDistBounds are the powers of two
// 1..64, so the bin of d in (1, 64] is ceil(log2 d); depBinMatchesBounds
// (table_test.go) pins the equivalence.
func depBin(d uint64) int {
	if d <= 1 {
		return 0
	}
	if d > uint64(DepDistBounds[len(DepDistBounds)-1]) {
		return len(DepDistBounds)
	}
	return bits.Len64(d - 1)
}

// strideBin maps an absolute address delta to its cumulative-threshold bin.
func strideBin(a, b uint64, bounds []uint64) int {
	var d uint64
	if a >= b {
		d = a - b
	} else {
		d = b - a
	}
	for i, bound := range bounds {
		if d <= bound {
			return i
		}
	}
	return len(bounds)
}

// Total returns the number of instructions recorded.
func (a *Analyzer) Total() uint64 { return a.total }

// Vector returns the 69-element MICA characteristic vector measured so far.
// Stride-bucket metrics are cumulative probabilities P(|stride| <= bound).
func (a *Analyzer) Vector() []float64 {
	v := make([]float64, NumMetrics)
	a.VectorInto(v)
	return v
}

// VectorInto is Vector writing into v, which must hold NumMetrics
// elements. It first replays the staged branch outcomes through the
// predictors; recording may continue afterwards.
func (a *Analyzer) VectorInto(v []float64) {
	a.replayOutcomes()
	clear(v)
	if a.total == 0 {
		return
	}
	ftotal := float64(a.total)

	for c := 0; c < isa.NumOpClasses; c++ {
		v[IdxMix+c] = float64(a.opCounts[c]) / ftotal
	}
	copy(v[IdxILP:IdxILP+4], a.ilp.IPC())

	v[IdxRegAvgSrc] = float64(a.srcOperands) / ftotal
	if a.regWrites > 0 {
		v[IdxRegUse] = float64(a.srcOperands) / float64(a.regWrites)
	}
	if a.depTotal > 0 {
		for i := 0; i < len(DepDistBounds); i++ {
			v[IdxRegDep+i] = float64(a.depBins[i]) / float64(a.depTotal)
		}
	}

	// Data pages are derived from the block set (page = block group of
	// isa.PageSize/isa.BlockSize): identical to tracking them online,
	// without the per-access insert.
	a.dataBlocks.FillShifted(&a.dataPages, uint(bits.TrailingZeros64(isa.PageSize/isa.BlockSize)))
	v[IdxFootprint+0] = float64(a.instrBlocks.Len())
	v[IdxFootprint+1] = float64(a.instrPages.Len())
	v[IdxFootprint+2] = float64(a.dataBlocks.Len())
	v[IdxFootprint+3] = float64(a.dataPages.Len())

	idx := IdxStrides
	idx = fillCumulative(v, idx, a.localLoadBins, a.localLoadCnt, len(LocalStrideBounds))
	idx = fillCumulative(v, idx, a.localStoreBins, a.localStoreCnt, len(LocalStrideBounds))
	idx = fillCumulative(v, idx, a.globalLoadBins, a.globalLoadCnt, len(GlobalStrideBounds))
	fillCumulative(v, idx, a.globalStoreBin, a.globalStoreCnt, len(GlobalStrideBounds))

	if a.condBranches > 0 {
		v[IdxTakenRate] = float64(a.condTaken) / float64(a.condBranches)
	}
	if a.transPairs > 0 {
		v[IdxTransRate] = float64(a.transitions) / float64(a.transPairs)
	}
	idx = IdxPPM
	for i := range a.predictors {
		for _, rate := range a.predictors[i].MissRates() {
			v[idx] = rate
			idx++
		}
	}
}

// fillCumulative writes the cumulative probabilities of the first n bins of
// a bin-count histogram into v starting at idx, returning the next index.
func fillCumulative(v []float64, idx int, bins []uint64, total uint64, n int) int {
	if total == 0 {
		return idx + n
	}
	var cum uint64
	for i := 0; i < n; i++ {
		cum += bins[i]
		v[idx+i] = float64(cum) / float64(total)
	}
	return idx + n
}
