package engine

import (
	"bytes"
	"encoding/gob"
	"math/bits"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"factorwindows/internal/agg"
	"factorwindows/internal/plan"
	"factorwindows/internal/stream"
	"factorwindows/internal/window"
)

// seededKeyTable builds an empty table with a fixed seed, so a failing
// probe-length assertion replays exactly.
func seededKeyTable(seed uint64) *keyTable {
	t := &keyTable{seed: seed}
	_ = t.rehash(minKeyIndex)
	return t
}

// maxProbe is the longest probe sequence a present key needs: the
// distance from its home position to where it sits, plus one.
func (t *keyTable) maxProbe() int {
	longest := 0
	for i, s := range t.index {
		if s == 0 {
			continue
		}
		if d := int((uint64(i)-t.home(t.keys[s-1]))&t.mask) + 1; d > longest {
			longest = d
		}
	}
	return longest
}

// probeBound is the longest probe run tolerated at a given key count:
// logarithmic in the index size, the expected maximum for linear
// probing at half load. A table whose keys pile into one run (as the
// unseeded hash does for chosen keys) takes probes linear in n.
func probeBound(n int) int {
	size := minKeyIndex
	for size < 2*n {
		size *= 2
	}
	return 8 + 4*bits.TrailingZeros(uint(size))
}

// checkKeyTable compares t with the map reference: the same keys in
// first-seen slot order, every key found at its slot, the index at most
// half full, and every probe run within probeBound.
func checkKeyTable(t *testing.T, label string, kt *keyTable, ref map[uint64]int32, order []uint64) {
	t.Helper()
	if len(kt.keys) != len(order) {
		t.Fatalf("%s: %d slots, reference has %d keys", label, len(kt.keys), len(order))
	}
	for s, key := range order {
		if kt.keys[s] != key {
			t.Fatalf("%s: slot %d holds key %d, first-seen order has %d", label, s, kt.keys[s], key)
		}
	}
	used := 0
	for _, s := range kt.index {
		if s != 0 {
			used++
		}
	}
	if used != len(order) || 2*used > len(kt.index) {
		t.Fatalf("%s: %d index entries for %d keys in %d positions", label, used, len(order), len(kt.index))
	}
	for key, want := range ref {
		if got := kt.slot(key); got != want {
			t.Fatalf("%s: key %d at slot %d, want %d", label, key, got, want)
		}
	}
	if len(kt.keys) != len(order) {
		t.Fatalf("%s: looking up present keys added slots", label)
	}
	if p, bound := kt.maxProbe(), probeBound(len(order)); p > bound {
		t.Fatalf("%s: probe run of %d at %d keys exceeds %d", label, p, len(order), bound)
	}
}

// feedKeyTable looks up every key, in order, in both the table and a
// map assigning slots in first-seen order, checking each answer.
func feedKeyTable(t *testing.T, label string, kt *keyTable, ref map[uint64]int32, order []uint64, keys []uint64) []uint64 {
	t.Helper()
	for _, key := range keys {
		want, ok := ref[key]
		if !ok {
			want = int32(len(order))
			ref[key] = want
			order = append(order, key)
		}
		if got := kt.slot(key); got != want {
			t.Fatalf("%s: slot(%d) = %d, want %d", label, key, got, want)
		}
	}
	return order
}

// fibInverse is the multiplicative inverse of fibHash mod 2^64: key
// j*fibInverse hashes to exactly j under the unseeded Fibonacci hash.
func fibInverse() uint64 {
	x := uint64(fibHash)
	for range 6 {
		x *= 2 - fibHash*x
	}
	return x
}

// shardOf mirrors parallel.ShardOf, which this package cannot import.
func shardOf(key uint64, n int) int {
	return int((key * fibHash >> 32) % uint64(n))
}

func TestKeyTableMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := range 60 {
		kt := seededKeyTable(r.Uint64())
		ref := map[uint64]int32{}
		var order []uint64
		// Small universes repeat keys often; wide ones mostly add.
		universe := []uint64{4, 64, 1 << 12, 1 << 62}[trial%4]
		for range 20 {
			batch := make([]uint64, r.Intn(400))
			for i := range batch {
				batch[i] = uint64(r.Int63n(int64(universe)))
				if r.Intn(8) == 0 {
					batch[i] = ^batch[i] // high bits set
				}
			}
			order = feedKeyTable(t, "random", kt, ref, order, batch)
			checkKeyTable(t, "random", kt, ref, order)
		}
	}
}

// TestKeyTableGrowthBoundaries checks the table on both sides of every
// index doubling up to 8192 positions, built incrementally and loaded
// from a key list of the same length.
func TestKeyTableGrowthBoundaries(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	kt := seededKeyTable(r.Uint64())
	ref := map[uint64]int32{}
	var order []uint64
	for size := minKeyIndex; size <= 8192; size *= 2 {
		for _, n := range []int{size/2 - 1, size / 2, size/2 + 1} {
			for len(order) < n {
				order = feedKeyTable(t, "grow", kt, ref, order, []uint64{r.Uint64()})
			}
			checkKeyTable(t, "grow", kt, ref, order)
			loaded := seededKeyTable(r.Uint64())
			if err := loaded.load(order); err != nil {
				t.Fatal(err)
			}
			checkKeyTable(t, "load", loaded, ref, order)
		}
	}
}

// TestKeyTableChosenCollisions feeds keys that all share one home
// position under the bare Fibonacci hash. Unseeded they form a single
// probe run as long as the key count; the seed spreads them.
func TestKeyTableChosenCollisions(t *testing.T) {
	inv := fibInverse()
	if inv*fibHash != 1 {
		t.Fatal("fibInverse is not the inverse of fibHash")
	}
	keys := make([]uint64, 4096)
	for j := range keys {
		keys[j] = uint64(j) * inv
	}
	bare := seededKeyTable(0)
	feedKeyTable(t, "unseeded", bare, map[uint64]int32{}, nil, keys)
	if p := bare.maxProbe(); p != len(keys) {
		t.Fatalf("unseeded probe run %d, want %d: the keys no longer collide", p, len(keys))
	}
	r := rand.New(rand.NewSource(13))
	for range 20 {
		kt := seededKeyTable(r.Uint64())
		ref := map[uint64]int32{}
		order := feedKeyTable(t, "chosen", kt, ref, nil, keys)
		checkKeyTable(t, "chosen", kt, ref, order)
	}
}

// TestKeyTableShardSubsets feeds each shard's share of a dense key
// range, as a parallel Runner's shard engines see it: the subset shares
// bits of the Fibonacci hash, and must not cluster in the table.
func TestKeyTableShardSubsets(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for _, n := range []int{1, 2, 4, 7} {
		for shard := range n {
			var keys []uint64
			for key := uint64(0); len(keys) < 4096; key++ {
				if shardOf(key, n) == shard {
					keys = append(keys, key)
				}
			}
			kt := seededKeyTable(r.Uint64())
			ref := map[uint64]int32{}
			order := feedKeyTable(t, "shard", kt, ref, nil, keys)
			checkKeyTable(t, "shard", kt, ref, order)
		}
	}
}

func TestKeyTableLoadRejectsRepeatedKey(t *testing.T) {
	kt := newKeyTable()
	if err := kt.load([]uint64{3, 7, 9, 7}); err == nil || !strings.Contains(err.Error(), "key 7") {
		t.Fatalf("load of a repeated key: err = %v", err)
	}
}

// duplicateKeyRun processes two keys into the same tumbling instance
// and returns the plan and the runner, whose key list is [7, 8].
func duplicateKeyRun(t *testing.T) (*plan.Plan, *Runner) {
	t.Helper()
	p, err := plan.NewOriginal(window.MustSet(window.Tumbling(10)), agg.Min)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(p, &stream.CollectingSink{})
	if err != nil {
		t.Fatal(err)
	}
	r.Process([]stream.Event{{Time: 1, Key: 7, Value: 1}, {Time: 2, Key: 8, Value: 7}})
	if len(r.keyed.keys) != 2 {
		t.Fatalf("key list %v", r.keyed.keys)
	}
	return p, r
}

// TestRestoreRejectsRepeatedKey: a snapshot whose key list names one
// key at two slots would restore a Runner emitting two rows for that
// key in one window instance. Restore must refuse it.
func TestRestoreRejectsRepeatedKey(t *testing.T) {
	p, r := duplicateKeyRun(t)
	data, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := decodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	snap.Keys = []uint64{7, 7}
	var buf bytes.Buffer
	buf.WriteString(snapshotMagicV2)
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(p, &stream.CollectingSink{}, buf.Bytes()); err == nil ||
		!strings.Contains(err.Error(), "key 7") {
		t.Fatalf("snapshot with a repeated key: err = %v", err)
	}
}

// TestImportCanonicalRejectsRepeatedKey is the migration-path twin of
// TestRestoreRejectsRepeatedKey.
func TestImportCanonicalRejectsRepeatedKey(t *testing.T) {
	p, r := duplicateKeyRun(t)
	ex, err := r.ExportCanonical(2)
	if err != nil {
		t.Fatal(err)
	}
	ex.Keys = []uint64{7, 7}
	fresh, err := New(p, &stream.CollectingSink{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.ImportCanonical(ex, 0); err == nil || !strings.Contains(err.Error(), "key 7") {
		t.Fatalf("export with a repeated key: err = %v", err)
	}
}

// BenchmarkKeyTable measures one slot lookup of a present key, in the
// pseudo-random key order a shard engine sees, at a small and a large
// per-shard key count.
func BenchmarkKeyTable(b *testing.B) {
	for _, n := range []int{16, 4096} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			r := rand.New(rand.NewSource(15))
			kt := newKeyTable()
			for range n {
				kt.slot(r.Uint64())
			}
			probes := make([]uint64, 4096)
			for i := range probes {
				probes[i] = kt.keys[r.Intn(n)]
			}
			var sum int32
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sum += kt.slot(probes[i&(len(probes)-1)])
			}
			keyTableSink = sum
		})
	}
}

var keyTableSink int32
