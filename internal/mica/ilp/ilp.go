// Package ilp measures the inherent instruction-level parallelism of an
// instruction stream on an idealized processor: perfect caches, perfect
// branch prediction, unlimited functional units — the only constraints are
// true register data dependences and a finite window of in-flight
// instructions. This matches the four MICA "ILP" characteristics (IPC for
// window sizes 32, 64, 128 and 256).
package ilp

import (
	"fmt"

	"repro/internal/isa"
)

// StandardWindows are the window sizes of the paper's Table 1.
var StandardWindows = []int{32, 64, 128, 256}

// windowModel schedules instructions through one window size.
type windowModel struct {
	size     int
	regReady [isa.NumRegs]int64 // cycle each register value is available
	complete []int64            // ring buffer of completion cycles
	pos      int
	count    uint64
	lastDone int64 // latest completion cycle seen
	fused    bool  // a member of one of the Analyzer's fused groups
}

func newWindowModel(size int) windowModel {
	return windowModel{
		size:     size,
		complete: make([]int64, size),
	}
}

func (w *windowModel) record(ins *isa.Instruction) {
	// Issue no earlier than when the instruction leaving the window
	// completed (a full window stalls dispatch), and no earlier than all
	// source operands are ready.
	start := int64(0)
	if w.count >= uint64(w.size) {
		start = w.complete[w.pos]
	}
	for _, r := range ins.Sources() {
		if r == isa.ZeroReg {
			continue
		}
		if t := w.regReady[r]; t > start {
			start = t
		}
	}
	done := start + int64(ins.Op.Latency())
	if ins.WritesReg() {
		w.regReady[ins.Dst] = done
	}
	w.complete[w.pos] = done
	w.pos++
	if w.pos == w.size {
		w.pos = 0
	}
	w.count++
	if done > w.lastDone {
		w.lastDone = done
	}
}

// recordBatch is record unrolled over a block: the window's scalar state
// lives in locals for the whole batch instead of being reloaded per call,
// and the full-window test is hoisted out of the steady-state loop (once
// count reaches the window size it stays there).
func (w *windowModel) recordBatch(batch []isa.Instruction) {
	pos := w.pos
	count := w.count
	lastDone := w.lastDone
	complete := w.complete
	size := len(complete)

	j := 0
	for ; j < len(batch) && count < uint64(size); j++ {
		ins := &batch[j]
		start := int64(0)
		for _, r := range ins.Src[:ins.NSrc] {
			if r == isa.ZeroReg {
				continue
			}
			if t := w.regReady[r]; t > start {
				start = t
			}
		}
		done := start + int64(ins.Op.Latency())
		if ins.Dst != isa.ZeroReg {
			w.regReady[ins.Dst] = done
		}
		complete[pos] = done
		pos++
		if pos == size {
			pos = 0
		}
		count++
		if done > lastDone {
			lastDone = done
		}
	}
	count += uint64(len(batch) - j)
	for ; j < len(batch); j++ {
		ins := &batch[j]
		start := complete[pos]
		for _, r := range ins.Src[:ins.NSrc] {
			if r == isa.ZeroReg {
				continue
			}
			if t := w.regReady[r]; t > start {
				start = t
			}
		}
		done := start + int64(ins.Op.Latency())
		if ins.Dst != isa.ZeroReg {
			w.regReady[ins.Dst] = done
		}
		complete[pos] = done
		pos++
		if pos == size {
			pos = 0
		}
		if done > lastDone {
			lastDone = done
		}
	}
	w.pos, w.count, w.lastDone = pos, count, lastDone
}

func (w *windowModel) ipc() float64 {
	if w.count == 0 || w.lastDone == 0 {
		return 0
	}
	return float64(w.count) / float64(w.lastDone)
}

func (w *windowModel) reset() {
	clear(w.regReady[:])
	clear(w.complete)
	w.pos = 0
	w.count = 0
	w.lastDone = 0
}

// recordFused schedules a block through four full power-of-two windows in
// one instruction-major pass. Each instruction's sources, destination and
// latency are decoded once and the four windows' dependence chains are
// interleaved, so the processor overlaps their load-max-store latencies
// instead of running each chain on its own. Every window must already be
// full (count >= size): from then on a window's state evolves identically
// whichever order the windows are visited in.
//
// Sources past NSrc read the zero register, and the destination store is
// unconditional, followed by re-zeroing register 0: the zero register's
// ready time stays 0, which never delays issue (start is at least the
// ring's completion cycle, itself >= 0), so both are identities.
func recordFused(w0, w1, w2, w3 *windowModel, batch []isa.Instruction) {
	r0, r1, r2, r3 := &w0.regReady, &w1.regReady, &w2.regReady, &w3.regReady
	c0, c1, c2, c3 := w0.complete, w1.complete, w2.complete, w3.complete
	m0, m1, m2, m3 := uint64(len(c0)-1), uint64(len(c1)-1), uint64(len(c2)-1), uint64(len(c3)-1)
	_, _, _, _ = c0[m0], c1[m1], c2[m2], c3[m3] // proves the masked ring indexing in bounds
	p0, p1, p2, p3 := uint64(w0.pos), uint64(w1.pos), uint64(w2.pos), uint64(w3.pos)
	l0, l1, l2, l3 := w0.lastDone, w1.lastDone, w2.lastDone, w3.lastDone
	const rm = isa.NumRegs - 1 // identity mask: registers are < NumRegs
	for j := range batch {
		ins := &batch[j]
		a, b, c := ins.Src[0]&rm, ins.Src[1]&rm, ins.Src[2]&rm
		if ins.NSrc < 3 {
			c = 0
		}
		if ins.NSrc < 2 {
			b = 0
		}
		if ins.NSrc < 1 {
			a = 0
		}
		d := ins.Dst & rm
		lat := int64(ins.Op.Latency())

		t0 := max(c0[p0&m0], r0[a], r0[b], r0[c]) + lat
		t1 := max(c1[p1&m1], r1[a], r1[b], r1[c]) + lat
		t2 := max(c2[p2&m2], r2[a], r2[b], r2[c]) + lat
		t3 := max(c3[p3&m3], r3[a], r3[b], r3[c]) + lat
		r0[d], r1[d], r2[d], r3[d] = t0, t1, t2, t3
		r0[0], r1[0], r2[0], r3[0] = 0, 0, 0, 0
		c0[p0&m0], c1[p1&m1], c2[p2&m2], c3[p3&m3] = t0, t1, t2, t3
		p0, p1, p2, p3 = (p0+1)&m0, (p1+1)&m1, (p2+1)&m2, (p3+1)&m3
		l0, l1, l2, l3 = max(l0, t0), max(l1, t1), max(l2, t2), max(l3, t3)
	}
	n := uint64(len(batch))
	w0.pos, w1.pos, w2.pos, w3.pos = int(p0), int(p1), int(p2), int(p3)
	w0.lastDone, w1.lastDone, w2.lastDone, w3.lastDone = l0, l1, l2, l3
	w0.count, w1.count, w2.count, w3.count = w0.count+n, w1.count+n, w2.count+n, w3.count+n
}

// Analyzer measures ideal IPC for a set of window sizes simultaneously.
// The window models are stored by value, contiguously, so walking them on
// the hot path touches one slab rather than chasing pointers.
type Analyzer struct {
	windows []windowModel
	// fused groups the power-of-two windows four at a time (all of the
	// standard windows form one group); RecordBatch runs each group
	// through recordFused once its rings are full. Windows outside every
	// group always run alone.
	fused [][4]int
}

// NewAnalyzer builds an analyzer for the given window sizes (typically
// StandardWindows).
func NewAnalyzer(windows []int) (*Analyzer, error) {
	if len(windows) == 0 {
		return nil, fmt.Errorf("ilp: no window sizes")
	}
	a := &Analyzer{}
	var pow2 []int
	for i, w := range windows {
		if w <= 0 {
			return nil, fmt.Errorf("ilp: non-positive window size %d", w)
		}
		a.windows = append(a.windows, newWindowModel(w))
		if w&(w-1) == 0 {
			pow2 = append(pow2, i)
		}
	}
	for ; len(pow2) >= 4; pow2 = pow2[4:] {
		a.fused = append(a.fused, [4]int(pow2))
		for _, i := range pow2[:4] {
			a.windows[i].fused = true
		}
	}
	return a, nil
}

// Record schedules one instruction in every window model.
func (a *Analyzer) Record(ins *isa.Instruction) {
	for i := range a.windows {
		a.windows[i].record(ins)
	}
}

// RecordBatch schedules a block of instructions. The windows are mutually
// independent, so any interleaving gives the result of instruction-major
// Record calls. Windows outside the fused groups, and every window until
// all fused rings are full, run window-major — the block through window
// 32, then 64, and so on — keeping each model's scoreboard and ring hot.
// After that each fused group goes through recordFused.
func (a *Analyzer) RecordBatch(batch []isa.Instruction) {
	warm := 0
	for i := range a.windows {
		if w := &a.windows[i]; w.fused && w.count < uint64(w.size) {
			warm = max(warm, min(w.size-int(w.count), len(batch)))
		}
	}
	for i := range a.windows {
		if w := &a.windows[i]; w.fused {
			w.recordBatch(batch[:warm])
		} else {
			w.recordBatch(batch)
		}
	}
	ws := a.windows
	for _, f := range a.fused {
		recordFused(&ws[f[0]], &ws[f[1]], &ws[f[2]], &ws[f[3]], batch[warm:])
	}
}

// IPC returns the achieved ideal IPC per configured window, in the order
// the windows were given.
func (a *Analyzer) IPC() []float64 {
	out := make([]float64, len(a.windows))
	for i := range a.windows {
		out[i] = a.windows[i].ipc()
	}
	return out
}

// Reset clears all scheduling state.
func (a *Analyzer) Reset() {
	for i := range a.windows {
		a.windows[i].reset()
	}
}
