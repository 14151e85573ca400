package leakprof

import (
	"encoding/binary"
	"fmt"

	"repro/internal/frame"
	"repro/internal/report"
)

// Journal payload layout. Every frame's payload is an internal/frame
// envelope — magic 0xB1, version, flags (flate for snapshot bodies) —
// around a binary body (see encodeBinaryBody). The body packs integers
// as varints (zigzag for signed), floats as 8-byte little-endian IEEE
// bits, timestamps as a presence byte plus a zigzag varint of UnixNano
// (so the zero time survives a round trip), and strings as uvarint
// references into a string dictionary — the shared internal/frame
// primitives.
//
// The dictionary is scoped to one segment and starts empty in every
// segment: a frame's leading table lists only the strings it appends to
// the segment's cumulative dictionary (taking the next consecutive
// indices), and its references index that dictionary — so steady-state
// delta frames that keep naming the same hot stack locations stop
// re-encoding them. The dictionary record kind (binaryKindDict) is read
// but never written: earlier builds wrote it at a rolled segment's head
// to seed strings carried over from the previous segment, and it decodes
// to no journal record.
//
// Version 3 is the only version this build reads or writes; a frame at
// any other version fails the open with an error naming both.
var journalFormat = frame.Format{Name: "journal record", Magic: 0xB1, Version: 3}

// Binary record kinds (the first body field after the string table).
const (
	binaryKindDelta    = 1
	binaryKindSnapshot = 2
	binaryKindDict     = 3 // segment dictionary seed, no record; read only
)

// segDecoder threads one segment's cumulative string dictionary through
// frame decoding. Each frame's leading table extends the dictionary
// before the frame's references resolve against it, keeping the reader
// in lockstep with the writer. The zero segDecoder starts an empty
// dictionary on first need.
type segDecoder struct {
	dict *frame.Dict
}

// encodeBinaryRecordDict renders rec as a frame payload whose references
// index dt's segment dictionary; strings the dictionary lacks ride the
// frame's leading table as appends. The caller owns the commit protocol:
// dt.Commit() only after the frame is written, so the in-memory
// dictionary never runs ahead of the on-disk segment. Snapshot bodies
// are flate-compressed: they carry the whole journal's state, and their
// string-heavy sections (locations, keys) compress several-fold.
func encodeBinaryRecordDict(rec *journalRecord, dt *frame.DictTable) ([]byte, error) {
	body := encodeBinaryBody(rec, dt)
	// The appended-strings table precedes the sections that reference
	// the dictionary so decoding is one pass.
	return journalFormat.Seal(rec.Kind == recordSnapshot, dt.AppendTo(nil), body)
}

func encodeBinaryBody(rec *journalRecord, tbl *frame.DictTable) []byte {
	b := make([]byte, 0, bodySize(rec))
	kind := uint64(binaryKindDelta)
	if rec.Kind == recordSnapshot {
		kind = binaryKindSnapshot
	}
	b = binary.AppendUvarint(b, kind)
	b = frame.AppendTime(b, rec.SavedAt)

	b = binary.AppendUvarint(b, uint64(len(rec.Bugs)))
	for i := range rec.Bugs {
		bug := &rec.Bugs[i]
		b = binary.AppendUvarint(b, tbl.Ref(bug.Key))
		b = binary.AppendUvarint(b, tbl.Ref(bug.Service))
		b = binary.AppendUvarint(b, tbl.Ref(bug.Op))
		b = binary.AppendUvarint(b, tbl.Ref(bug.Location))
		b = binary.AppendUvarint(b, tbl.Ref(bug.Function))
		b = binary.AppendUvarint(b, tbl.Ref(bug.Owner))
		b = binary.AppendVarint(b, int64(bug.BlockedGoroutines))
		b = frame.AppendFloat(b, bug.Impact)
		b = frame.AppendTime(b, bug.FiledAt)
		b = frame.AppendTime(b, bug.LastSeen)
		b = binary.AppendUvarint(b, uint64(bug.Status))
		b = binary.AppendVarint(b, int64(bug.Sightings))
		b = binary.AppendUvarint(b, tbl.Ref(bug.StaticAlarm))
	}

	b = binary.AppendUvarint(b, uint64(len(rec.Trend)))
	for key, obs := range rec.Trend {
		b = binary.AppendUvarint(b, tbl.Ref(key))
		b = binary.AppendUvarint(b, uint64(len(obs)))
		for _, o := range obs {
			b = frame.AppendTime(b, o.At)
			b = binary.AppendVarint(b, int64(o.Total))
			b = binary.AppendVarint(b, int64(o.Profiles))
			b = frame.AppendFloat(b, o.SumSquares)
		}
	}

	if rec.Sweep == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	sw := rec.Sweep
	b = frame.AppendTime(b, sw.At)
	b = binary.AppendUvarint(b, tbl.Ref(sw.Source))
	b = binary.AppendVarint(b, int64(sw.Profiles))
	b = binary.AppendVarint(b, int64(sw.Errors))
	b = binary.AppendVarint(b, int64(sw.Findings))
	b = binary.AppendUvarint(b, uint64(len(sw.FailedByService)))
	for svc, n := range sw.FailedByService {
		b = binary.AppendUvarint(b, tbl.Ref(svc))
		b = binary.AppendVarint(b, int64(n))
	}
	return b
}

// bodySize sizes rec's body from its counts, so encodeBinaryBody
// allocates it once. While the dictionary holds fewer than 2M strings
// and counts stay below a million, a bug takes at most 55 bytes (seven
// references, two timestamps, a float and three small counters) and a
// trend observation 23; a body past that grows as append grows it.
func bodySize(rec *journalRecord) int {
	n := 64 + 64*len(rec.Bugs)
	for _, obs := range rec.Trend {
		n += 8 + 24*len(obs)
	}
	if rec.Sweep != nil {
		n += 8 * len(rec.Sweep.FailedByService)
	}
	return n
}

// decodePayload decodes one frame payload against the segment
// dictionary: the frame's appended strings extend it first, then its
// references resolve against the whole dictionary. A dictionary-seed
// frame contributes its strings and decodes to (nil, nil).
func (d *segDecoder) decodePayload(payload []byte) (*journalRecord, error) {
	body, err := journalFormat.Open(payload)
	if err != nil {
		return nil, err
	}
	r := frame.NewReader(body)
	if d.dict == nil {
		d.dict = frame.NewDict()
	}
	d.dict.Extend(r.StringTable())
	tbl := d.dict.Strings()

	rec := &journalRecord{}
	switch kind := r.Uvarint(); {
	case r.Err() != nil:
		return nil, r.Err()
	case kind == binaryKindDelta:
		rec.Kind = recordDelta
	case kind == binaryKindSnapshot:
		rec.Kind = recordSnapshot
	case kind == binaryKindDict:
		return nil, nil
	default:
		return nil, fmt.Errorf("leakprof: binary record kind %d unknown", kind)
	}
	rec.SavedAt = r.Time()

	if n := r.Count(10); n > 0 {
		rec.Bugs = make([]report.Bug, n)
	}
	for i := range rec.Bugs {
		bug := &rec.Bugs[i]
		bug.Key = r.Str(tbl)
		bug.Service = r.Str(tbl)
		bug.Op = r.Str(tbl)
		bug.Location = r.Str(tbl)
		bug.Function = r.Str(tbl)
		bug.Owner = r.Str(tbl)
		bug.BlockedGoroutines = r.Int()
		bug.Impact = r.Float64()
		bug.FiledAt = r.Time()
		bug.LastSeen = r.Time()
		bug.Status = report.Status(r.Uvarint())
		bug.Sightings = r.Int()
		bug.StaticAlarm = r.Str(tbl)
	}

	if n := r.Count(3); n > 0 {
		rec.Trend = make(map[string][]TrendObservation, n)
		for i := 0; i < n; i++ {
			key := r.Str(tbl)
			obs := make([]TrendObservation, r.Count(11))
			for j := range obs {
				obs[j].At = r.Time()
				obs[j].Total = r.Int()
				obs[j].Profiles = r.Int()
				obs[j].SumSquares = r.Float64()
			}
			rec.Trend[key] = obs
		}
	}

	if r.Byte() != 0 {
		sw := &SweepRecord{}
		sw.At = r.Time()
		sw.Source = r.Str(tbl)
		sw.Profiles = r.Int()
		sw.Errors = r.Int()
		sw.Findings = r.Int()
		if n := r.Count(2); n > 0 {
			sw.FailedByService = make(map[string]int, n)
			for i := 0; i < n; i++ {
				svc := r.Str(tbl)
				sw.FailedByService[svc] = r.Int()
			}
		}
		rec.Sweep = sw
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return rec, nil
}
