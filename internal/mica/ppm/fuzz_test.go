package ppm

import "testing"

// FuzzGroupRecordAll pins Group.RecordAll to independent reference
// Predictors in both counter layouts. Each input byte is one branch
// outcome (one of 13 PCs, taken by its top bit); tableBits spans 4..10
// and the two history lengths 0..12, so the longest history falls on
// both sides of tableBits. The stream is replayed into each standard
// variant's group in chunk sizes drawn from chunks, and a chunk with the
// low bit of its draw set is preceded by a Reset of the group and the
// references; miss rates and prediction counts must match at every
// chunk boundary.
func FuzzGroupRecordAll(f *testing.F) {
	mixed := make([]byte, 2000)
	x := uint64(3)
	for i := range mixed {
		x = x*6364136223846793005 + 1442695040888963407
		mixed[i] = byte(x >> 56)
	}
	// Dense global tables whose longest order aliases: 16 order-4
	// contexts in 16 entries, and orders 5-8 in 256 entries.
	f.Add(mixed[:400], uint8(0), uint8(4), uint8(2), uint64(3))
	f.Add(mixed, uint8(4), uint8(8), uint8(4), uint64(9))
	// Hashed global tables (the longest history exceeds tableBits).
	f.Add([]byte("\x01\x82\x03\x84\x85\x06\x87\x88"), uint8(4), uint8(4), uint8(12), uint64(1))
	f.Add([]byte("taken, not taken, taken again and again and again"), uint8(8), uint8(0), uint8(8), uint64(7))
	f.Add(make([]byte, 300), uint8(10), uint8(12), uint8(3), uint64(0xdeadbeef))
	f.Fuzz(func(t *testing.T, data []byte, tableBits, lenA, lenB uint8, chunks uint64) {
		if len(data) > 1<<14 {
			data = data[:1<<14]
		}
		tb := 4 + int(tableBits%7)
		lengths := []int{int(lenA % 13), int(lenB % 13)}
		outs := make([]Outcome, len(data))
		for i, b := range data {
			outs[i] = Outcome{PC: 0x400000 + uint64(b%13)*4, Taken: b&0x80 != 0}
		}
		for _, v := range []struct{ h, t Scope }{
			{Global, Global}, {Global, PerAddress}, {PerAddress, Global}, {PerAddress, PerAddress},
		} {
			g, err := NewGroup(v.h, v.t, lengths, tb)
			if err != nil {
				t.Fatal(err)
			}
			refs := make([]*Predictor, 0, 2)
			for _, l := range g.Lengths() {
				p, err := New(Config{HistoryScope: v.h, TableScope: v.t, MaxHistory: l, TableBits: tb})
				if err != nil {
					t.Fatal(err)
				}
				refs = append(refs, p)
			}
			x := chunks
			for lo := 0; lo < len(outs); {
				x = x*6364136223846793005 + 1442695040888963407
				if x>>32&1 == 1 {
					g.Reset()
					for _, p := range refs {
						p.Reset()
					}
				}
				hi := min(lo+1+int(x>>40%97), len(outs))
				g.RecordAll(outs[lo:hi])
				for _, o := range outs[lo:hi] {
					for _, p := range refs {
						p.Record(o.PC, o.Taken)
					}
				}
				lo = hi
				rates := g.MissRates()
				for i, p := range refs {
					if g.Predictions() != p.Predictions() || rates[i] != p.MissRate() {
						t.Fatalf("%s tableBits %d length %d after %d outcomes: %d predictions, miss rate %v; reference %d, %v",
							g.Name(), tb, g.Lengths()[i], hi, g.Predictions(), rates[i], p.Predictions(), p.MissRate())
					}
				}
			}
		}
	})
}
