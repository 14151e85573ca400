package leakprof

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/report"
)

// encodeBinaryRecord renders rec as a self-contained frame payload: a
// fresh dictionary makes the frame's appended-strings table carry every
// string it references, the shape of a snapshot segment's only frame.
func encodeBinaryRecord(rec *journalRecord) ([]byte, error) {
	return encodeBinaryRecordDict(rec, frame.NewDictTable(frame.NewDict(), 0))
}

// decodePayload decodes one self-contained frame payload, without a
// segment dictionary; segment replay threads one via segDecoder. A
// dictionary-seed frame decodes to (nil, nil): callers skip it.
func decodePayload(payload []byte) (*journalRecord, error) {
	var d segDecoder
	return d.decodePayload(payload)
}

// codecSampleRecord builds a record exercising every field the codec
// carries: zero and non-zero times, variance-bearing observations, a
// sweep outcome with failure counts. Its maps hold one entry each, so
// its encoding does not depend on map iteration order.
func codecSampleRecord(kind string) *journalRecord {
	at := time.Unix(1000, 42).UTC()
	return &journalRecord{
		Kind:    kind,
		SavedAt: at,
		Bugs: []report.Bug{
			{
				Key: "svc|send|/a.go:1", Service: "svc", Op: "send",
				Location: "/a.go:1", Function: "svc.leak", Owner: "team-a",
				BlockedGoroutines: 12345, Impact: 321.5,
				FiledAt: at, LastSeen: at.Add(24 * time.Hour),
				Status: report.StatusAcknowledged, Sightings: 7,
				StaticAlarm: "gcatch-like",
			},
			{Key: "svc|recv|/b.go:9", Service: "svc", Op: "recv", Location: "/b.go:9"},
		},
		Trend: map[string][]TrendObservation{
			"svc|send|/a.go:1": {
				{At: at, Total: 100, Profiles: 8, SumSquares: 1250.25},
				{At: at.Add(24 * time.Hour), Total: 140},
			},
		},
		Sweep: &SweepRecord{
			At: at, Source: "fleet", Profiles: 100, Errors: 3, Findings: 2,
			FailedByService: map[string]int{"flaky": 3},
		},
	}
}

// TestCodecRoundTrip pins the codec: a record survives encode/decode
// exactly, including zero-time fields.
func TestCodecRoundTrip(t *testing.T) {
	for _, kind := range []string{recordDelta, recordSnapshot} {
		t.Run("binary/"+kind, func(t *testing.T) {
			rec := codecSampleRecord(kind)
			payload, err := encodeBinaryRecord(rec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := decodePayload(payload)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rec, got) {
				t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", rec, got)
			}
		})
	}
}

// TestCodecFramesSelfDescribe pins that persisted formats name
// themselves in their payload's first byte: a journal record and a
// shard report never decode as one another.
func TestCodecFramesSelfDescribe(t *testing.T) {
	journal, err := encodeBinaryRecord(codecSampleRecord(recordDelta))
	if err != nil {
		t.Fatal(err)
	}
	shard, err := encodeShardReport(&ShardReport{Shard: "s", Profiles: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodePayload(shard); err == nil || !strings.Contains(err.Error(), "not a journal record") {
		t.Errorf("shard report decoded as a journal record: %v", err)
	}
	if _, err := decodeShardReport(journal); err == nil || !strings.Contains(err.Error(), "not a shard report") {
		t.Errorf("journal record decoded as a shard report: %v", err)
	}
}

// TestCodecTruncationRobustness feeds the binary decoder every prefix of
// a valid payload: each must error cleanly — never panic, never succeed
// with garbage, and never allocate absurdly (the count bounds). A frame
// at any other version, or a JSON frame from format 2, must be refused
// with an error naming what was found, never misread.
func TestCodecTruncationRobustness(t *testing.T) {
	for _, kind := range []string{recordDelta, recordSnapshot} {
		payload, err := encodeBinaryRecord(codecSampleRecord(kind))
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(payload); n++ {
			if _, err := decodePayload(payload[:n]); err == nil {
				t.Errorf("%s payload truncated to %d bytes decoded without error", kind, n)
			}
		}
		// Flipping the version byte either way must refuse, not misread.
		for _, ver := range []byte{journalFormat.Version + 1, journalFormat.Version - 1} {
			bad := append([]byte(nil), payload...)
			bad[1] = ver
			_, err := decodePayload(bad)
			if !errors.Is(err, frame.ErrVersion) ||
				!strings.Contains(err.Error(), fmt.Sprintf("version %d", ver)) ||
				!strings.Contains(err.Error(), fmt.Sprintf("supported %d", journalFormat.Version)) {
				t.Errorf("binary record version %d: err = %v, want a version error naming %d and %d",
					ver, err, ver, journalFormat.Version)
			}
		}
	}
	jsonFrame, err := json.Marshal(codecSampleRecord(recordDelta))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodePayload(jsonFrame); err == nil || !strings.Contains(err.Error(), "leading byte 0x7b") {
		t.Errorf("JSON journal frame: err = %v, want a refusal naming its leading '{'", err)
	}
}

// TestBinarySnapshotSmallerThanJSON pins that a 100K-key steady-state
// snapshot payload round-trips.
func TestBinarySnapshotSmallerThanJSON(t *testing.T) {
	const keys = 100_000
	at := time.Unix(0, 0).UTC()
	rec := &journalRecord{Kind: recordSnapshot, SavedAt: at, Trend: make(map[string][]TrendObservation, keys)}
	rec.Bugs = make([]report.Bug, keys)
	for i := range rec.Bugs {
		key := fmt.Sprintf("svc|send|/svc/f%05d.go:1", i)
		rec.Bugs[i] = report.Bug{
			Key: key, Service: "svc", Op: "send",
			Location: fmt.Sprintf("/svc/f%05d.go:1", i), Function: "svc.leak",
			Owner: "team-a", BlockedGoroutines: 1000 + i, Impact: float64(i),
			FiledAt: at, LastSeen: at, Sightings: 3,
		}
		rec.Trend[key] = []TrendObservation{
			{At: at, Total: 1000 + i, Profiles: 8, SumSquares: float64(i) * 1.5},
			{At: at.Add(24 * time.Hour), Total: 1100 + i, Profiles: 8, SumSquares: float64(i) * 1.6},
		}
	}
	binPayload, err := encodeBinaryRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("snapshot payload at %d keys: %d bytes", keys, len(binPayload))
	got, err := decodePayload(binPayload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Bugs) != keys || len(got.Trend) != keys {
		t.Errorf("scale round trip lost records: %d bugs, %d trend keys", len(got.Bugs), len(got.Trend))
	}
}

// TestCodecDeltaAllocsBelowJSON pins the alloc half of the codec win:
// encoding a production-shaped delta frame (ten touched keys, the
// BenchmarkStateJournal sweep shape) binary must allocate less than
// json.Marshal does.
func TestCodecDeltaAllocsBelowJSON(t *testing.T) {
	rec := codecSampleRecord(recordDelta)
	at := rec.SavedAt
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("svc|send|/svc/f%05d.go:1", i)
		rec.Bugs = append(rec.Bugs, report.Bug{
			Key: key, Service: "svc", Op: "send",
			Location: fmt.Sprintf("/svc/f%05d.go:1", i), FiledAt: at, LastSeen: at,
			BlockedGoroutines: 1000 + i, Sightings: 2,
		})
		rec.Trend[key] = []TrendObservation{{At: at, Total: 1000 + i}}
	}
	binAllocs := testing.AllocsPerRun(50, func() {
		if _, err := encodeBinaryRecord(rec); err != nil {
			t.Fatal(err)
		}
	})
	jsonAllocs := testing.AllocsPerRun(50, func() {
		if _, err := json.Marshal(rec); err != nil {
			t.Fatal(err)
		}
	})
	if binAllocs >= jsonAllocs {
		t.Errorf("binary encode allocs/op = %.0f, want below JSON's %.0f", binAllocs, jsonAllocs)
	}
	t.Logf("delta encode allocs/op: binary %.0f vs JSON %.0f", binAllocs, jsonAllocs)
}
