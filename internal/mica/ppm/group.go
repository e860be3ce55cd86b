package ppm

import (
	"fmt"
	"sort"
	"sync"
)

// Outcome is one resolved conditional branch, the unit of work for
// RecordAll: collecting a batch of outcomes and replaying it through each
// group in turn keeps that group's tables hot in cache for the whole
// batch instead of cycling every group's working set per instruction.
type Outcome struct {
	PC    uint64
	Taken bool
}

// Group evaluates one predictor variant (history scope x table scope) at
// several maximum history lengths simultaneously. Because a PPM predictor
// with maximum history H uses exactly the order-0..H frequency tables of
// the H'-history predictor (H' >= H) of the same variant, the group
// maintains one set of tables at the longest history and answers every
// configured length from it — identical results to independent Predictor
// instances at a fraction of the cost.
//
// Counters live in one []uint32 slab, order-major, in one of two layouts.
// The hashed layout gives order o the direct-mapped table
// slab[o<<tableBits : (o+1)<<tableBits] (64 KiB at the defaults). The
// dense layout serves global-table variants (GAg, PAg) whose longest
// history fits the table (maxHist <= tableBits): there order o's index
// depends on its o-bit context alone, so each of the 2^o contexts maps
// once to a class — the contexts whose hashed slots collide share one —
// and the order keeps one counter per class, about 8K counters in all at
// the defaults instead of 13 tables. Both layouts alias exactly as the
// reference Predictor does. RecordAll sweeps one order's table at a time.
type Group struct {
	histScope  Scope
	tableScope Scope
	lengths    []int // sorted ascending
	maxHist    int

	mask      uint64
	tableBits uint

	// slab holds the packed counters (taken<<16 | total) of every order,
	// order-major; table(o) is order o's part. classes is nil in the
	// hashed layout; in the dense layout classes[o][ctx] is the counter of
	// order-o context ctx within table(o), and base[o] is where table(o)
	// starts. stale marks the slab as holding a previous interval's
	// counters: Reset defers the clear to the next RecordAll, which clears
	// each order's table just before that order's pass, while the table
	// is in cache.
	slab    []uint32
	classes [][]uint32
	base    []int
	stale   bool

	globalHist uint64
	localHist  []uint64
	localMask  uint64

	predictions uint64
	misses      []uint64 // per length

	// RecordAll staging (reused across batches): per-outcome history, pc
	// hash term (never written for global tables, so zero) and taken bit,
	// and the
	// running prediction the order passes refine: after order o's pass,
	// predBuf[i] is outcome i's prediction at the longest order <= o that
	// had seen its context, or taken if none had.
	histBuf  []uint64
	pcBuf    []uint64
	takenBuf []uint8
	predBuf  []uint8
}

// NewGroup builds a grouped predictor for the given history lengths
// (typically {4, 8, 12}).
func NewGroup(histScope, tableScope Scope, lengths []int, tableBits int) (*Group, error) {
	if len(lengths) == 0 {
		return nil, fmt.Errorf("ppm: group with no history lengths")
	}
	ls := append([]int(nil), lengths...)
	sort.Ints(ls)
	if ls[0] < 0 || ls[len(ls)-1] > 32 {
		return nil, fmt.Errorf("ppm: history lengths %v out of [0,32]", ls)
	}
	if tableBits == 0 {
		tableBits = 14
	}
	if tableBits < 4 || tableBits > 24 {
		return nil, fmt.Errorf("ppm: table bits %d out of [4,24]", tableBits)
	}
	maxHist := ls[len(ls)-1]
	g := &Group{
		histScope:  histScope,
		tableScope: tableScope,
		lengths:    ls,
		maxHist:    maxHist,
		mask:       1<<uint(tableBits) - 1,
		tableBits:  uint(tableBits),
		misses:     make([]uint64, len(ls)),
	}
	if tableScope == Global && maxHist <= tableBits {
		g.classes = make([][]uint32, maxHist+1)
		g.base = make([]int, maxHist+2)
		for o := range g.classes {
			var n int
			g.classes[o], n = contextClasses(uint(tableBits), o)
			g.base[o+1] = g.base[o] + n
		}
		g.slab = make([]uint32, g.base[maxHist+1])
	} else {
		g.slab = make([]uint32, (maxHist+1)<<uint(tableBits))
	}
	if histScope == PerAddress {
		const localBits = 10
		g.localHist = make([]uint64, 1<<localBits)
		g.localMask = 1<<localBits - 1
	}
	return g, nil
}

// classCache holds each (tableBits, order) context-class map, built once
// and shared read-only by every dense group.
var classCache struct {
	sync.Mutex
	m map[[2]uint]classMap
}

type classMap struct {
	ids []uint32 // ids[ctx] is the class of order-o context ctx
	n   int      // number of classes
}

// contextClasses returns the class of every order-o context under a global
// table of 1<<tableBits entries, and the number of classes: contexts
// share a class exactly when the reference Predictor hashes them to the
// same slot. Classes are numbered by their smallest context.
func contextClasses(tableBits uint, o int) ([]uint32, int) {
	classCache.Lock()
	defer classCache.Unlock()
	key := [2]uint{tableBits, uint(o)}
	if c, ok := classCache.m[key]; ok {
		return c.ids, c.n
	}
	mask := uint64(1)<<tableBits - 1
	ids := make([]uint32, 1<<uint(o))
	bySlot := make(map[uint64]uint32)
	for ctx := range ids {
		slot := mix64(uint64(ctx)<<6^uint64(o)) & mask
		id, ok := bySlot[slot]
		if !ok {
			id = uint32(len(bySlot))
			bySlot[slot] = id
		}
		ids[ctx] = id
	}
	if classCache.m == nil {
		classCache.m = make(map[[2]uint]classMap)
	}
	classCache.m[key] = classMap{ids, len(bySlot)}
	return ids, len(bySlot)
}

// table returns order o's counters.
func (g *Group) table(o int) []uint32 {
	if g.classes != nil {
		return g.slab[g.base[o]:g.base[o+1]]
	}
	size := 1 << g.tableBits
	return g.slab[o*size : (o+1)*size]
}

// Lengths returns the configured history lengths, ascending.
func (g *Group) Lengths() []int { return append([]int(nil), g.lengths...) }

// Name returns the variant name, e.g. "PAs".
func (g *Group) Name() string {
	return Config{HistoryScope: g.histScope, TableScope: g.tableScope}.Name()
}

// Reset clears all predictor state and counters.
func (g *Group) Reset() {
	g.stale = true
	clear(g.localHist)
	g.globalHist = 0
	g.predictions = 0
	clear(g.misses)
}

// Record predicts the branch at pc at every configured history length,
// then updates the shared tables with the outcome: a one-outcome
// RecordAll.
func (g *Group) Record(pc uint64, taken bool) {
	one := [1]Outcome{{PC: pc, Taken: taken}}
	g.RecordAll(one[:])
}

// RecordAll replays a batch of branch outcomes in order, equivalent to
// predicting and updating each outcome in turn at every order but
// restructured order-major: the per-outcome history and pc term are
// staged once, then the whole batch sweeps the orders one at a time. The
// reordering is invisible: within an order, outcomes are replayed in
// stream order (so every read sees exactly the updates outcome-by-outcome
// processing would have applied), and different orders index disjoint
// entries. The longer the batch, the more outcomes share each sweep of an
// order's table.
func (g *Group) RecordAll(outcomes []Outcome) {
	n := len(outcomes)
	if n == 0 {
		return
	}
	if cap(g.histBuf) < n {
		g.histBuf = make([]uint64, n)
		g.pcBuf = make([]uint64, n)
		g.takenBuf = make([]uint8, n)
		g.predBuf = make([]uint8, n)
	}
	hists, pcs := g.histBuf[:n], g.pcBuf[:n]
	takens, preds := g.takenBuf[:n], g.predBuf[:n]
	perAddrTables := g.tableScope == PerAddress

	// Stage each outcome's pre-update history and pc hash term, advancing
	// the history state outcome by outcome.
	switch {
	case g.histScope == PerAddress:
		for i := range outcomes {
			o := &outcomes[i]
			h := mix64(o.PC)
			slot := &g.localHist[h&g.localMask]
			hists[i] = *slot
			if perAddrTables {
				pcs[i] = h << 1
			}
			t := uint8(0)
			if o.Taken {
				t = 1
			}
			takens[i] = t
			*slot = *slot<<1 | uint64(t)
		}
	default:
		hist := g.globalHist
		for i := range outcomes {
			o := &outcomes[i]
			hists[i] = hist
			if perAddrTables {
				pcs[i] = mix64(o.PC) << 1
			}
			t := uint8(0)
			if o.Taken {
				t = 1
			}
			takens[i] = t
			hist = hist<<1 | uint64(t)
		}
		g.globalHist = hist
	}

	for i := range preds {
		preds[i] = 1
	}
	// Ascending, so each pass leaves every outcome's prediction at the
	// longest seen order so far: after order l's pass, exactly the
	// prediction of the history-l predictor.
	for o := 0; o <= g.maxHist; o++ {
		tbl := g.table(o)
		if g.stale {
			clear(tbl)
		}
		var miss uint64
		if g.classes != nil {
			miss = recordDense(tbl, g.classes[o], takens, hists, preds, uint(o))
		} else {
			miss = g.recordHashed(tbl, o, takens, hists, pcs, preds)
		}
		for q, l := range g.lengths {
			if l == o {
				g.misses[q] += miss
			}
		}
	}
	g.stale = false
	g.predictions += uint64(n)
}

// update applies one outcome to a counter. It returns the outcome's
// running prediction — the counter's own (taken on a tie) if the counter
// had seen an outcome, else pred unchanged — and the counter's new value,
// both counts halved first when the total would overflow.
func update(pred uint8, e uint32, taken uint8) (uint8, uint32) {
	taken16, total16 := uint16(e>>16), uint16(e)
	var s, p uint8
	if total16 != 0 {
		s = 1
	}
	if 2*uint32(taken16) >= uint32(total16) {
		p = 1
	}
	pred ^= (pred ^ p) & s
	if total16 == entryMax {
		taken16 /= 2
		total16 /= 2
	}
	return pred, uint32(taken16+uint16(taken))<<16 | uint32(total16+1)
}

// recordHashed runs one order's predict+update pass over a staged batch
// in the hashed layout, touching only that order's table: it refines each
// outcome's running prediction and returns how many of the refined
// predictions miss.
func (g *Group) recordHashed(tbl []uint32, o int, takens []uint8, hists, pcs []uint64, preds []uint8) uint64 {
	m := g.mask
	_ = tbl[m] // proves every tbl[x&m] in bounds, so the loop has no bounds checks
	n := len(takens)
	hists, pcs, preds = hists[:n], pcs[:n], preds[:n]
	ctxMask := uint64(1)<<uint(o) - 1
	oTerm := uint64(o)
	var miss uint64
	for i, t := range takens {
		slot := &tbl[mix64((hists[i]&ctxMask)<<6^oTerm^pcs[i])&m]
		p, next := update(preds[i], *slot, t)
		preds[i] = p
		miss += uint64(p ^ t)
		*slot = next
	}
	return miss
}

// recordDense is recordHashed for the dense layout: order o's counter is
// found through the context's class, with no hashing.
func recordDense(tbl, classes []uint32, takens []uint8, hists []uint64, preds []uint8, o uint) uint64 {
	ctxMask := uint64(1)<<o - 1
	_ = classes[ctxMask] // every classes[x&ctxMask] in bounds
	n := len(takens)
	hists, preds = hists[:n], preds[:n]
	var miss uint64
	for i, t := range takens {
		slot := &tbl[classes[hists[i]&ctxMask]]
		p, next := update(preds[i], *slot, t)
		preds[i] = p
		miss += uint64(p ^ t)
		*slot = next
	}
	return miss
}

// MissRates returns the misprediction rate per configured history length,
// ascending by length.
func (g *Group) MissRates() []float64 {
	out := make([]float64, len(g.lengths))
	if g.predictions == 0 {
		return out
	}
	for i, m := range g.misses {
		out[i] = float64(m) / float64(g.predictions)
	}
	return out
}

// Predictions returns the number of branches recorded.
func (g *Group) Predictions() uint64 { return g.predictions }

// StandardGroups returns the four variant groups covering the twelve
// standard configurations, in the same variant order as StandardConfigs
// (GAg, GAs, PAg, PAs; each at histories 4, 8, 12). The groups are
// returned by value, contiguous, so a caller iterating predictors touches
// one slab of headers instead of four scattered allocations.
func StandardGroups() []Group {
	scopes := []struct{ h, t Scope }{
		{Global, Global},
		{Global, PerAddress},
		{PerAddress, Global},
		{PerAddress, PerAddress},
	}
	out := make([]Group, 0, len(scopes))
	for _, s := range scopes {
		g, err := NewGroup(s.h, s.t, []int{4, 8, 12}, 0)
		if err != nil {
			panic("ppm: standard group invalid: " + err.Error())
		}
		out = append(out, *g)
	}
	return out
}
