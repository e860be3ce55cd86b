package ilp

import (
	"math"
	"testing"

	"repro/internal/isa"
)

func mustAnalyzer(t *testing.T, windows []int) *Analyzer {
	t.Helper()
	a, err := NewAnalyzer(windows)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewAnalyzerRejectsBadWindows(t *testing.T) {
	if _, err := NewAnalyzer(nil); err == nil {
		t.Fatal("empty window list accepted")
	}
	if _, err := NewAnalyzer([]int{0}); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := NewAnalyzer([]int{-4}); err == nil {
		t.Fatal("negative window accepted")
	}
}

func TestSerialChainIPCIsOne(t *testing.T) {
	a := mustAnalyzer(t, []int{32, 256})
	// Every instruction reads the register the previous one wrote.
	for i := 0; i < 10000; i++ {
		ins := isa.Instruction{Op: isa.OpIntAdd, Dst: 1, Src: [isa.MaxSrcRegs]uint8{1}, NSrc: 1}
		a.Record(&ins)
	}
	for _, ipc := range a.IPC() {
		if math.Abs(ipc-1) > 0.01 {
			t.Fatalf("serial chain IPC = %v, want ~1", ipc)
		}
	}
}

func TestIndependentStreamIPCEqualsWindow(t *testing.T) {
	// With no dependences and unit latency, dispatch is limited only by
	// the window: IPC converges to the window size.
	a := mustAnalyzer(t, []int{32, 64})
	for i := 0; i < 64000; i++ {
		ins := isa.Instruction{Op: isa.OpIntAdd, Dst: 0} // no dst: no deps ever
		a.Record(&ins)
	}
	ipcs := a.IPC()
	if math.Abs(ipcs[0]-32) > 1 {
		t.Fatalf("window-32 IPC = %v, want ~32", ipcs[0])
	}
	if math.Abs(ipcs[1]-64) > 2 {
		t.Fatalf("window-64 IPC = %v, want ~64", ipcs[1])
	}
}

func TestDistanceLimitedChain(t *testing.T) {
	// A dependence spacing of d with unit latency yields IPC ~ d when d
	// is far below the window size.
	const d = 8
	a := mustAnalyzer(t, []int{256})
	for i := 0; i < 80000; i++ {
		reg := uint8(1 + i%d)
		ins := isa.Instruction{Op: isa.OpIntAdd, Dst: reg, Src: [isa.MaxSrcRegs]uint8{reg}, NSrc: 1}
		a.Record(&ins)
	}
	ipc := a.IPC()[0]
	if math.Abs(ipc-d) > 0.5 {
		t.Fatalf("distance-%d chain IPC = %v, want ~%d", d, ipc, d)
	}
}

func TestWindowMonotonicity(t *testing.T) {
	// IPC can never decrease with a larger window on the same stream.
	a := mustAnalyzer(t, []int{32, 64, 128, 256})
	x := uint64(7)
	for i := 0; i < 50000; i++ {
		x = x*6364136223846793005 + 1
		reg := uint8(1 + x%60)
		src := uint8(1 + (x>>8)%60)
		ins := isa.Instruction{Op: isa.OpIntAdd, Dst: reg, Src: [isa.MaxSrcRegs]uint8{src}, NSrc: 1}
		a.Record(&ins)
	}
	ipcs := a.IPC()
	for i := 1; i < len(ipcs); i++ {
		if ipcs[i] < ipcs[i-1]-1e-9 {
			t.Fatalf("IPC not monotone in window size: %v", ipcs)
		}
	}
}

func TestZeroRegNeverCreatesDependence(t *testing.T) {
	a := mustAnalyzer(t, []int{32})
	for i := 0; i < 32000; i++ {
		ins := isa.Instruction{Op: isa.OpIntAdd, Dst: 0, Src: [isa.MaxSrcRegs]uint8{isa.ZeroReg}, NSrc: 1}
		a.Record(&ins)
	}
	if ipc := a.IPC()[0]; math.Abs(ipc-32) > 1 {
		t.Fatalf("zero-reg stream IPC = %v, want window-limited ~32", ipc)
	}
}

func TestEmptyIPCIsZero(t *testing.T) {
	a := mustAnalyzer(t, []int{32})
	if got := a.IPC()[0]; got != 0 {
		t.Fatalf("empty analyzer IPC = %v", got)
	}
}

func TestReset(t *testing.T) {
	a := mustAnalyzer(t, []int{32})
	ins := isa.Instruction{Op: isa.OpIntAdd, Dst: 1, Src: [isa.MaxSrcRegs]uint8{1}, NSrc: 1}
	for i := 0; i < 100; i++ {
		a.Record(&ins)
	}
	a.Reset()
	if got := a.IPC()[0]; got != 0 {
		t.Fatalf("IPC after Reset = %v", got)
	}
	// Post-reset behaviour identical to a fresh analyzer.
	for i := 0; i < 1000; i++ {
		a.Record(&isa.Instruction{Op: isa.OpIntAdd, Dst: 0})
	}
	if got := a.IPC()[0]; math.Abs(got-32) > 2 {
		t.Fatalf("IPC after Reset and refill = %v", got)
	}
}

func TestStandardWindows(t *testing.T) {
	want := []int{32, 64, 128, 256}
	if len(StandardWindows) != len(want) {
		t.Fatalf("StandardWindows = %v", StandardWindows)
	}
	for i, w := range want {
		if StandardWindows[i] != w {
			t.Fatalf("StandardWindows = %v, want %v", StandardWindows, want)
		}
	}
}

// TestRecordBatchMatchesRecord pins RecordBatch — warm-up, the fused
// power-of-two pass, leftover power-of-two windows and non-power-of-two
// windows — to instruction-major Record, bit for bit, over random streams
// fed in uneven blocks, across a Reset.
func TestRecordBatchMatchesRecord(t *testing.T) {
	x := uint64(11)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 33
	}
	stream := make([]isa.Instruction, 20000)
	for i := range stream {
		ins := &stream[i]
		ins.Op = isa.OpClass(next() % uint64(isa.NumOpClasses))
		if next()%10 < 7 {
			ins.Dst = uint8(next() % isa.NumRegs)
		}
		ins.NSrc = uint8(next() % (isa.MaxSrcRegs + 1))
		for s := range ins.Src { // registers past NSrc are junk, as they may be in a decoded trace
			ins.Src[s] = uint8(next() % isa.NumRegs)
		}
	}
	for _, windows := range [][]int{
		StandardWindows,
		{1, 2, 4, 8, 16, 32},
		{256, 48, 32, 100, 64, 128, 3},
		{8},
	} {
		scalar, batched := mustAnalyzer(t, windows), mustAnalyzer(t, windows)
		for round := 0; round < 2; round++ {
			scalar.Reset()
			batched.Reset()
			for i := range stream {
				scalar.Record(&stream[i])
			}
			for lo := 0; lo < len(stream); {
				hi := min(lo+1+int(next()%700), len(stream))
				batched.RecordBatch(stream[lo:hi])
				lo = hi
			}
			for i := range scalar.windows {
				s, b := &scalar.windows[i], &batched.windows[i]
				if s.count != b.count || s.lastDone != b.lastDone || s.pos != b.pos || s.regReady != b.regReady {
					t.Fatalf("windows %v round %d: window %d diverged: Record (count %d, last %d), RecordBatch (count %d, last %d)",
						windows, round, s.size, s.count, s.lastDone, b.count, b.lastDone)
				}
			}
		}
	}
}
