// identity.go implements the identity index: the one answer to "is a
// tuple syntactically identical to t stored, and where?" behind every
// duplicate check (the insert paths, Project) and FindIdentical.
package relation

import (
	"encoding/binary"
	"hash/maphash"

	"fdnull/internal/schema"
)

// identity maps a row's full syntactic identity — constants, null marks,
// `!` — to the rows holding it. The key is a 64-bit hash, verified by
// IdenticalOn on a hit, so a row costs one small map slot (int32 row
// numbers: 2³¹ rows do not fit in memory) instead of a rendered key and a
// row slice. One hash can hold several rows: true duplicates, which
// SetCellDelta and InsertUnchecked legitimately create, and collisions
// both land in more, which is empty on ordinary instances.
type identity struct {
	all   schema.AttrSet
	first map[uint64]int32 // hash → one row with that hash
	more  map[uint64][]int // hash → the further rows with that hash
}

var identSeed = maphash.MakeSeed()

// identMask is all ones outside tests; a test clears it so every row
// collides and the multi-row path carries the whole load.
var identMask = ^uint64(0)

func identHash(t Tuple) uint64 {
	var h maphash.Hash
	h.SetSeed(identSeed)
	for _, v := range t {
		h.WriteByte(byte(v.Kind()))
		switch {
		case v.IsConst():
			h.WriteString(v.Const())
		case v.IsNull():
			var m [8]byte
			binary.LittleEndian.PutUint64(m[:], uint64(v.Mark()))
			h.Write(m[:])
		}
	}
	return h.Sum64() & identMask
}

// identityIndex returns the identity index, building it on first use under
// the mutex IndexOn takes (and counting in IndexCounts like IndexOn). The
// delta mutators keep it exact in place; mutated drops it.
func (r *Relation) identityIndex() *identity {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ident != nil {
		r.indexServed++
		return r.ident
	}
	r.indexBuilt++
	r.ident = &identity{all: r.scheme.All(), first: make(map[uint64]int32, len(r.tuples)), more: map[uint64][]int{}}
	for i, t := range r.tuples {
		r.ident.add(i, t)
	}
	return r.ident
}

// find returns a row of tuples identical to t, or -1.
func (id *identity) find(tuples []Tuple, t Tuple) int {
	h := identHash(t)
	if i, ok := id.first[h]; ok {
		if t.IdenticalOn(tuples[i], id.all) {
			return int(i)
		}
		for _, j := range id.more[h] {
			if t.IdenticalOn(tuples[j], id.all) {
				return j
			}
		}
	}
	return -1
}

func (id *identity) add(i int, t Tuple) {
	h := identHash(t)
	if _, ok := id.first[h]; !ok {
		id.first[h] = int32(i)
		return
	}
	id.more[h] = append(id.more[h], i)
}

// remove forgets row i, whose content is (still) t.
func (id *identity) remove(i int, t Tuple) {
	h := identHash(t)
	more := id.more[h]
	if n := len(more); id.first[h] != int32(i) {
		more = cutRow(more, i)
	} else if n > 0 {
		id.first[h], more = int32(more[n-1]), more[:n-1]
	} else {
		delete(id.first, h)
	}
	if len(more) > 0 {
		id.more[h] = more
	} else {
		delete(id.more, h)
	}
}

// renumber rewrites row id old to new for the row whose content is t.
func (id *identity) renumber(old, new int, t Tuple) {
	h := identHash(t)
	if id.first[h] == int32(old) {
		id.first[h] = int32(new)
	} else {
		swapRow(id.more[h], old, new)
	}
}
