package engine

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
)

// keyTable assigns dense canonical slots to group keys, shared by every
// operator of a plan so sub-aggregate slots mean the same thing
// everywhere. Slots are handed out in first-seen order, so keys[s] is
// the s-th distinct key the Runner met; result order, checkpoints and
// exports depend on that order and never on the hash.
//
// The index is a linear-probing open-addressing table of slot+1 values
// (0 marks an empty position) over keys, kept at most half full. A key's
// home position is the top bits of the Fibonacci hash ShardOf also uses,
// taken over the key XORed with a per-table random seed: the seed keeps
// keys chosen to collide under the bare hash from flooding one probe
// run, and it decorrelates the table from the shard placement, whose
// per-shard key subsets share hash bits.
type keyTable struct {
	keys  []uint64
	index []int32
	mask  uint64 // len(index) - 1
	shift uint   // 64 - log2(len(index))
	seed  uint64
}

// fibHash is the 64-bit Fibonacci hashing multiplier (2^64 / φ).
const fibHash = 0x9e3779b97f4a7c15

// minKeyIndex is the smallest index size (a power of two).
const minKeyIndex = 16

func newKeyTable() keyTable {
	t := keyTable{seed: rand.Uint64()}
	_ = t.rehash(minKeyIndex) // no keys, nothing to collide
	return t
}

// home returns key's preferred index position.
func (t *keyTable) home(key uint64) uint64 {
	return ((key ^ t.seed) * fibHash) >> t.shift
}

// slot returns key's slot, assigning the next one on first sight.
func (t *keyTable) slot(key uint64) int32 {
	for i := t.home(key); ; i = (i + 1) & t.mask {
		s := t.index[i]
		if s == 0 {
			return t.add(key, i)
		}
		if t.keys[s-1] == key {
			return s - 1
		}
	}
}

// add assigns key the next slot at the empty index position i, doubling
// the index instead once the table would pass half full.
func (t *keyTable) add(key uint64, i uint64) int32 {
	s := int32(len(t.keys))
	t.keys = append(t.keys, key)
	if 2*len(t.keys) > len(t.index) {
		_ = t.rehash(2 * len(t.index)) // keys are distinct by construction
	} else {
		t.index[i] = s + 1
	}
	return s
}

// rehash rebuilds the index at size positions over the current keys. It
// reports the first key that appears twice; the slot order stays as is.
func (t *keyTable) rehash(size int) error {
	t.index = make([]int32, size)
	t.mask = uint64(size - 1)
	t.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	for s, key := range t.keys {
		i := t.home(key)
		for ; t.index[i] != 0; i = (i + 1) & t.mask {
			if t.keys[t.index[i]-1] == key {
				return fmt.Errorf("key %d listed at slots %d and %d", key, t.index[i]-1, s)
			}
		}
		t.index[i] = int32(s + 1)
	}
	return nil
}

// load replaces the table's contents with keys in slot order — the key
// list of a snapshot or export. A key listed twice is an error: two
// slots for one key would split its group into two result rows.
func (t *keyTable) load(keys []uint64) error {
	t.keys = append([]uint64(nil), keys...)
	size := minKeyIndex
	for size < 2*len(keys) {
		size *= 2
	}
	return t.rehash(size)
}
