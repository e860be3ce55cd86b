package fcache

import (
	"bytes"
	"testing"
)

// FuzzEntry pins the entry codec on arbitrary bytes: entries arrive off
// disk and, as /shard replies, off the network. DecodeEntry must return
// an error, never panic, and any entry it accepts must re-encode to the
// identical bytes.
func FuzzEntry(f *testing.F) {
	k := Key{Kind: KindShard, Version: 7, Behavior: 0x1234, Seed: 1<<32 | 3, Length: 40}
	entry := EncodeEntry(k, []byte("shard payload"))
	// A header claiming a giant payload over a tiny entry.
	lying := append([]byte(nil), entry[:headerSize]...)
	lying[40], lying[44] = 0xff, 0xff
	for _, data := range [][]byte{entry, EncodeEntry(k, nil), entry[:headerSize], lying, {}} {
		f.Add(k.Kind, k.Version, k.Behavior, k.Seed, k.Length, data)
	}
	f.Fuzz(func(t *testing.T, kind uint16, version uint32, behavior, seed uint64, length int64, data []byte) {
		k := Key{Kind: kind, Version: version, Behavior: behavior, Seed: seed, Length: length}
		payload, err := DecodeEntry(k, data)
		if err != nil {
			return
		}
		if out := EncodeEntry(k, payload); !bytes.Equal(out, data) {
			t.Fatalf("accepted entry re-encodes differently (%d vs %d bytes)", len(out), len(data))
		}
	})
}
