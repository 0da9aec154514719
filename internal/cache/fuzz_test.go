package cache

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"testing"

	"sccsim/internal/snap"
)

// fuzzLevel is small enough to fuzz quickly yet has two groups of
// sets, so a restore can allocate one group and not the other.
var fuzzLevel = Config{Name: "fuzz", Sets: 2 * groupSets, Ways: 2, LineBytes: 64, Latency: 1, Repl: ReplRandom}

// levelPayload returns the payload EncodeSnapshot writes for c, without
// the snapshot header and digest.
func levelPayload(c *Cache) []byte {
	w := snap.NewWriter()
	header := w.Len()
	c.EncodeSnapshot(w)
	data := w.Finish()
	return data[header : len(data)-sha256.Size]
}

// restoreLevel restores a sealed payload onto a fresh fuzzLevel, or
// returns nil when the decoder rejects it.
func restoreLevel(t *testing.T, payload []byte) *Cache {
	w := snap.NewWriter()
	w.Raw(payload)
	r, err := snap.NewReader(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	c := New(fuzzLevel)
	c.RestoreSnapshot(r)
	if r.Err() != nil {
		return nil
	}
	return c
}

// FuzzCacheRestore feeds arbitrary level payloads, sealed with a valid
// header and digest so they reach the decoder, to RestoreSnapshot. It
// must never panic or allocate storage beyond the level's geometry; a
// payload the decoder accepts must re-encode to bytes that restore to
// the same bytes, and the restored level must keep working.
func FuzzCacheRestore(f *testing.F) {
	for _, n := range []int{0, 5, 400} {
		c := New(fuzzLevel)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < n; i++ {
			c.Access(uint64(rng.Intn(1<<12)) * 64)
		}
		f.Add(levelPayload(c))
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		c := restoreLevel(t, payload)
		if c == nil {
			return
		}
		for i, set := range c.sets {
			if len(set) != 0 && (len(set) != fuzzLevel.Ways || cap(set) != fuzzLevel.Ways) {
				t.Fatalf("set %d has %d ways (cap %d), level has %d", i, len(set), cap(set), fuzzLevel.Ways)
			}
			if (len(set) == 0) != (len(c.sets[i&^(groupSets-1)]) == 0) {
				t.Fatalf("set %d allocated apart from its group", i)
			}
		}
		first := levelPayload(c)
		again := restoreLevel(t, first)
		if again == nil {
			t.Fatal("re-encoded level does not restore")
		}
		if second := levelPayload(again); !bytes.Equal(second, first) {
			t.Fatal("re-encoded level restores to different bytes")
		}
		for _, addr := range []uint64{0, 64, 1 << 20, 0xdead40} {
			c.Access(addr)
			c.Contains(addr + 64)
		}
	})
}
