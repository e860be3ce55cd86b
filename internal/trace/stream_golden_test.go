package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/isa"
)

// goldenStreamBehaviors mirrors the phases of the mica package's
// golden-vector fixture (periodic and Bernoulli branches, all three
// access-pattern kinds, short and long dependence distances, int and FP
// mixes), so the generator's raw output is pinned under the same inputs
// whose 69-dim vectors that fixture pins.
func goldenStreamBehaviors() map[string]*PhaseBehavior {
	intBranchy := &PhaseBehavior{
		Name:     "golden/int-branchy",
		Mix:      BaseMix(),
		CodeSize: 4096,
		Branch:   BranchSpec{TakenBias: 0.7, PatternPeriod: 8, NoiseLevel: 0.02},
		Reg:      RegDepSpec{MeanDepDist: 3, AvgSrcRegs: 1.6, WriteFraction: 0.7},
		Loads: []AccessPattern{
			{Kind: PatternStride, Weight: 0.7, Region: 1 << 18, Stride: 8},
			{Kind: PatternRandom, Weight: 0.3, Region: 1 << 22},
		},
		Stores: []AccessPattern{
			{Kind: PatternStride, Weight: 1, Region: 1 << 16, Stride: 16},
		},
		Jitter: 0.1,
	}
	fpStream := &PhaseBehavior{
		Name:     "golden/fp-stream",
		Mix:      FPBaseMix(),
		CodeSize: 1024,
		Branch:   BranchSpec{TakenBias: 0.95, PatternPeriod: 32, NoiseLevel: 0},
		Reg:      RegDepSpec{MeanDepDist: 20, AvgSrcRegs: 2.1, WriteFraction: 0.85},
		Loads: []AccessPattern{
			{Kind: PatternStride, Weight: 1, Region: 1 << 24, Stride: 8},
		},
		Stores: []AccessPattern{
			{Kind: PatternStride, Weight: 1, Region: 1 << 24, Stride: 8},
		},
		Jitter: 0,
	}
	pointerChase := &PhaseBehavior{
		Name:     "golden/pointer-chase",
		Mix:      BaseMix().Set(isa.OpLoad, 0.35).Set(isa.OpBranchCond, 0.18),
		CodeSize: 16384,
		Branch:   BranchSpec{TakenBias: 0.5, PatternPeriod: 0, NoiseLevel: 0},
		Reg:      RegDepSpec{MeanDepDist: 1.5, AvgSrcRegs: 1.2, WriteFraction: 0.55},
		Loads: []AccessPattern{
			{Kind: PatternChase, Weight: 0.8, Region: 1 << 20},
			{Kind: PatternRandom, Weight: 0.2, Region: 1 << 26},
		},
		Stores: []AccessPattern{
			{Kind: PatternRandom, Weight: 1, Region: 1 << 20},
		},
		Jitter: 0.25,
	}
	return map[string]*PhaseBehavior{
		intBranchy.Name:   intBranchy,
		fpStream.Name:     fpStream,
		pointerChase.Name: pointerChase,
	}
}

// streamDigest hashes every field of every instruction of one interval.
func streamDigest(t *testing.T, b *PhaseBehavior, seed uint64, n int) string {
	t.Helper()
	h := sha256.New()
	var rec [8 + 1 + 1 + isa.MaxSrcRegs + 1 + 8 + 1 + 8]byte
	err := GenerateInterval(b, seed, n, func(ins *isa.Instruction) {
		p := rec[:0]
		p = binary.LittleEndian.AppendUint64(p, ins.PC)
		p = append(p, byte(ins.Op), ins.Dst)
		p = append(p, ins.Src[:]...)
		p = append(p, ins.NSrc)
		p = binary.LittleEndian.AppendUint64(p, ins.Addr)
		taken := byte(0)
		if ins.Taken {
			taken = 1
		}
		p = append(p, taken)
		p = binary.LittleEndian.AppendUint64(p, ins.Target)
		h.Write(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenStreams pins the generator's full instruction stream, field by
// field, over a 20,000-instruction interval of each golden phase. Any
// rewrite of the generator or its RNG draws (table-driven geometric
// sampling, the O(1) dependence-source lookup) must reproduce these bytes.
func TestGoldenStreams(t *testing.T) {
	want := map[string]map[uint64]string{
		"golden/int-branchy": {
			1:  "6bc4d337cfde3379f6c873ee3341046fa5b608d66176a38343a12e4c3d616ffc",
			42: "c2db620c2d1e000b50b4cab4501a800c4f17f2d9effbc8dc414c9be523c6edb4",
		},
		"golden/fp-stream": {
			1:  "a8ca08b66f34d6dc5fbce710e192c1f6d2911651402f15314298080eedd9987a",
			42: "53293e3e2dec95bf0509f25356fea3664cc52f549350f1b143669746659cc2bd",
		},
		"golden/pointer-chase": {
			1:  "abbc408c28c60393624b5718263837fabcba1976739625b0326088e03f82142d",
			42: "b08171569b8b456940234e73d5a768fa6455712d6d73290c6b1c4434c3226994",
		},
	}
	behs := goldenStreamBehaviors()
	for name, seeds := range want {
		for seed, digest := range seeds {
			if got := streamDigest(t, behs[name], seed, 20000); got != digest {
				t.Errorf("%s seed %d: stream digest %s, want %s", name, seed, got, digest)
			}
		}
	}
}
