package ppm

import (
	"fmt"
	"math/bits"
	"sort"
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
// Entry storage is one direct-mapped slab laid out order-major: order o's
// table is slab[o<<tableBits : (o+1)<<tableBits], so each RecordAll order
// pass sweeps only its own table (64 KiB at the defaults) instead of
// hashing every order across one shared structure.
type Group struct {
	histScope  Scope
	tableScope Scope
	lengths    []int // sorted ascending
	maxHist    int

	mask      uint64
	tableBits uint

	// slab holds the packed counters (taken<<16 | total) of every order's
	// table, order-major, unpadded: (maxHist+1)<<tableBits entries.
	// stale marks it as holding a previous interval's counters: Reset
	// defers the clear to the next RecordAll, which clears each order's
	// table just before that order's pass, while the table is in cache.
	slab  []uint32
	stale bool

	globalHist uint64
	localHist  []uint64
	localMask  uint64

	predictions uint64
	misses      []uint64 // per length

	// RecordAll staging (reused across batches): per-outcome history, pc
	// hash term and taken bit (pre-widened to the counter increment so the
	// order passes never re-derive it), and per-outcome bit sets filled by
	// the order passes: bit o+1 of seenBuf is set if order o's entry had
	// been seen, and then bit o+1 of predBuf holds its prediction. Bit 0
	// of both is set: the predicted-taken default below order 0.
	histBuf  []uint64
	pcBuf    []uint64
	takenBuf []uint16
	seenBuf  []uint64
	predBuf  []uint64
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
	g := &Group{
		histScope:  histScope,
		tableScope: tableScope,
		lengths:    ls,
		maxHist:    ls[len(ls)-1],
		mask:       1<<uint(tableBits) - 1,
		tableBits:  uint(tableBits),
		misses:     make([]uint64, len(ls)),
		slab:       make([]uint32, (ls[len(ls)-1]+1)<<uint(tableBits)),
	}
	if histScope == PerAddress {
		const localBits = 10
		g.localHist = make([]uint64, 1<<localBits)
		g.localMask = 1<<localBits - 1
	}
	return g, nil
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
// then updates the shared tables with the outcome.
func (g *Group) Record(pc uint64, taken bool) {
	if g.stale {
		clear(g.slab)
		g.stale = false
	}
	hist := &g.globalHist
	var pcTerm uint64
	if g.histScope == PerAddress || g.tableScope == PerAddress {
		h := mix64(pc)
		if g.histScope == PerAddress {
			hist = &g.localHist[h&g.localMask]
		}
		if g.tableScope == PerAddress {
			pcTerm = h << 1
		}
	}
	g.record(*hist, pcTerm, taken)

	*hist = *hist << 1
	if taken {
		*hist |= 1
	}
	g.predictions++
}

// record runs the fused predict+update pass for one branch. A single
// descending sweep is equivalent to the predict-then-update split: each
// order's entries are disjoint (the order is part of the index), so when
// order o is visited only orders above it have been updated and its entry
// still holds the pre-update counts every prediction must read.
func (g *Group) record(hist, pcTerm uint64, taken bool) {
	lengths := g.lengths
	misses := g.misses
	pending := len(lengths) - 1
	for o := g.maxHist; o >= 0; o-- {
		ctx := hist & (1<<uint(o) - 1)
		idx := uint64(o)<<g.tableBits + (mix64(ctx<<6^uint64(o)^pcTerm) & g.mask)
		e := g.slab[idx]
		taken16, total16 := uint16(e>>16), uint16(e)

		if total16 != 0 {
			pred := 2*uint32(taken16) >= uint32(total16)
			for pending >= 0 && lengths[pending] >= o {
				if pred != taken {
					misses[pending]++
				}
				pending--
			}
		}

		if total16 == entryMax {
			taken16 /= 2
			total16 /= 2
		}
		total16++
		if taken {
			taken16++
		}
		g.slab[idx] = uint32(taken16)<<16 | uint32(total16)
	}
	// Cutoffs that found no seen context at any order default to taken.
	for ; pending >= 0; pending-- {
		if !taken {
			misses[pending]++
		}
	}
}

// RecordAll replays a batch of branch outcomes in order, equivalent to
// calling Record on each outcome but restructured order-major: the
// per-outcome history and pc term are staged once, then the whole batch
// sweeps the orders one at a time. The reordering is invisible: within an
// order, outcomes are replayed in stream order (so every read sees
// exactly the updates scalar processing would have applied), and
// different orders index disjoint entries.
func (g *Group) RecordAll(outcomes []Outcome) {
	n := len(outcomes)
	if n == 0 {
		return
	}
	if cap(g.histBuf) < n {
		g.histBuf = make([]uint64, n)
		g.pcBuf = make([]uint64, n)
		g.takenBuf = make([]uint16, n)
		g.seenBuf = make([]uint64, n)
		g.predBuf = make([]uint64, n)
	}
	hists := g.histBuf[:n]
	pcs := g.pcBuf[:n]
	takens := g.takenBuf[:n]
	seen, pred := g.seenBuf[:n], g.predBuf[:n]

	// Stage each outcome's pre-update history and pc hash term, advancing
	// the history state exactly as scalar Record would.
	switch {
	case g.histScope == PerAddress:
		perAddrTables := g.tableScope == PerAddress
		for i := range outcomes {
			o := &outcomes[i]
			h := mix64(o.PC)
			slot := &g.localHist[h&g.localMask]
			hists[i] = *slot
			if perAddrTables {
				pcs[i] = h << 1
			} else {
				pcs[i] = 0
			}
			t := uint16(0)
			if o.Taken {
				t = 1
			}
			takens[i] = t
			*slot = *slot<<1 | uint64(t)
		}
	case g.tableScope == PerAddress:
		hist := g.globalHist
		for i := range outcomes {
			o := &outcomes[i]
			hists[i] = hist
			pcs[i] = mix64(o.PC) << 1
			t := uint16(0)
			if o.Taken {
				t = 1
			}
			takens[i] = t
			hist = hist<<1 | uint64(t)
		}
		g.globalHist = hist
	default: // GAg
		hist := g.globalHist
		for i := range outcomes {
			hists[i] = hist
			pcs[i] = 0
			t := uint16(0)
			if outcomes[i].Taken {
				t = 1
			}
			takens[i] = t
			hist = hist<<1 | uint64(t)
		}
		g.globalHist = hist
	}

	for i := range seen {
		seen[i], pred[i] = 1, 1
	}
	for o := g.maxHist; o >= 0; o-- {
		g.recordOrder(o, takens, hists, pcs, seen, pred)
	}
	g.stale = false
	// Each length predicts from its longest seen order (the default if
	// none): the highest set bit of seen at or below it.
	for q, l := range g.lengths {
		within := uint64(1)<<uint(l+2) - 1
		var miss uint64
		for i := range takens {
			at := bits.Len64(seen[i]&within) - 1
			miss += pred[i]>>uint(at)&1 ^ uint64(takens[i])
		}
		g.misses[q] += miss
	}
	g.predictions += uint64(n)
}

// recordOrder runs one order's predict+update pass over a staged batch,
// touching only that order's table. It records whether each outcome's
// entry had been seen and, if so, its prediction; RecordAll resolves the
// predictions per history length once every order has run.
func (g *Group) recordOrder(o int, takens []uint16, hists, pcs, seen, pred []uint64) {
	size := 1 << g.tableBits
	tbl := g.slab[o*size : (o+1)*size]
	if g.stale {
		clear(tbl)
	}
	m := g.mask
	_ = tbl[m] // proves every tbl[x&m] in bounds, so the loop has no bounds checks
	n := len(takens)
	hists, pcs, seen, pred = hists[:n], pcs[:n], seen[:n], pred[:n]
	ctxMask := uint64(1)<<uint(o) - 1
	oTerm := uint64(o)
	bit := uint(o + 1)
	for i := range takens {
		slot := &tbl[mix64((hists[i]&ctxMask)<<6^oTerm^pcs[i])&m]
		e := *slot
		taken16, total16 := uint16(e>>16), uint16(e)

		var s, p uint64
		if total16 != 0 {
			s = 1
		}
		if 2*uint32(taken16) >= uint32(total16) {
			p = 1
		}
		seen[i] |= s << bit
		pred[i] |= p << bit

		if total16 == entryMax {
			taken16 /= 2
			total16 /= 2
		}
		total16++
		taken16 += takens[i]
		*slot = uint32(taken16)<<16 | uint32(total16)
	}
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
