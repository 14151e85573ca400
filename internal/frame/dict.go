package frame

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// Dict is a segment-scoped string dictionary: one cumulative table
// shared by every dictionary-referencing frame in a journal segment.
// Where a per-record table re-encodes a record's strings into every
// frame, a Dict lets each frame carry only the strings the segment has
// not seen yet — steady-state delta frames that keep touching the same
// hot stack locations shrink to pure references.
//
// The growth protocol mirrors the on-disk layout exactly: a frame's
// serialized prefix lists the strings it appends, in first-encounter
// order, and those strings take the next consecutive indices after the
// dictionary's current length. A decoder that extends its replica with
// each frame's appends before resolving that frame's references stays
// in lockstep with the writer. Dict is not safe for concurrent use;
// the journal's single-writer lock covers it.
type Dict struct {
	index map[string]uint64
	strs  []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return &Dict{index: make(map[string]uint64)} }

// Len returns the number of strings in the dictionary.
func (d *Dict) Len() int { return len(d.strs) }

// Strings returns the dictionary's backing slice: index i holds string
// i. Callers must treat it as read-only; it aliases the live table so a
// decoder can resolve references without copying per frame.
func (d *Dict) Strings() []string { return d.strs }

// Lookup returns the index of s if the dictionary holds it.
func (d *Dict) Lookup(s string) (uint64, bool) {
	i, ok := d.index[s]
	return i, ok
}

// Extend appends strs to the dictionary in order, assigning consecutive
// indices. This is the decoder half of the growth protocol: apply a
// frame's appended-strings prefix before resolving its references. A
// string already present keeps its first index but still consumes the
// next slot, so writer and reader index assignment never diverge even
// for a frame that (wastefully) re-appends a known string.
func (d *Dict) Extend(strs []string) {
	for _, s := range strs {
		if _, ok := d.index[s]; !ok {
			d.index[s] = uint64(len(d.strs))
		}
		d.strs = append(d.strs, s)
	}
}

// DictTable is the per-frame write view over a segment Dict; over a
// fresh Dict it is a plain per-record string table, the form shard
// reports and the findings index use. Ref
// resolves strings against the dictionary, recording each miss as one
// of the frame's appended strings with its future cumulative index.
// The appends become durable in two steps: AppendTo serializes them
// into the frame, and Commit publishes them into the dictionary once
// the frame write succeeded. An abandoned table (a failed write) is
// simply dropped, so the in-memory dictionary never references strings
// the on-disk segment does not declare.
type DictTable struct {
	dict  *Dict
	index map[string]uint64 // strings this frame appends, by future index
	added []string
}

// NewDictTable returns a write view over dict for one frame, with room
// for hint appended strings before it grows.
func NewDictTable(dict *Dict, hint int) *DictTable {
	return &DictTable{dict: dict, index: make(map[string]uint64, hint), added: make([]string, 0, hint)}
}

// Ref returns the cumulative dictionary index for s, scheduling s as
// one of this frame's appended strings if the dictionary lacks it.
func (t *DictTable) Ref(s string) uint64 {
	if t.dict.Len() > 0 {
		if i, ok := t.dict.Lookup(s); ok {
			return i
		}
	}
	if i, ok := t.index[s]; ok {
		return i
	}
	i := uint64(t.dict.Len() + len(t.added))
	t.index[s] = i
	t.added = append(t.added, s)
	return i
}

// AppendTo serializes the frame's appended strings (count, then
// length-prefixed strings, the layout Reader.StringTable reads), growing
// b at most once. It must precede the sections that reference the
// dictionary so decoding is one pass.
func (t *DictTable) AppendTo(b []byte) []byte {
	n := uvarintLen(uint64(len(t.added)))
	for _, s := range t.added {
		n += uvarintLen(uint64(len(s))) + len(s)
	}
	b = slices.Grow(b, n)
	b = binary.AppendUvarint(b, uint64(len(t.added)))
	for _, s := range t.added {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	return b
}

// Commit publishes the appended strings into the segment dictionary.
// Call it only after the frame holding them was written successfully.
// An empty dictionary takes over the table's index and strings as they
// are: they already hold every string at the index Extend would give it.
func (t *DictTable) Commit() {
	if t.dict.Len() == 0 {
		t.dict.index, t.dict.strs = t.index, t.added
	} else {
		t.dict.Extend(t.added)
	}
	t.added = nil
	t.index = nil
}

// uvarintLen returns the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }
