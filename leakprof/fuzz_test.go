package leakprof

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/frame"
	"repro/internal/report"
)

// addSeeds seeds f with each valid payload (wrapped into what the
// decoder reads), prefixes of it, and copies with the envelope's version
// byte flipped down and up.
func addSeeds(f *testing.F, wrap func([]byte) []byte, payloads ...[]byte) {
	for _, payload := range payloads {
		enc := wrap(payload)
		for n := 0; n <= len(enc); n++ {
			if n < 256 || n%97 == 0 || n == len(enc) {
				f.Add(enc[:n])
			}
		}
		for _, v := range []byte{payload[1] - 1, payload[1] + 1} {
			flipped := append([]byte(nil), payload...)
			flipped[1] = v
			f.Add(wrap(flipped))
		}
	}
}

// nanFree maps NaN to one value so floats decoded from arbitrary bits
// compare equal to their own round trip.
func nanFree(x *float64) {
	if math.IsNaN(*x) {
		*x = math.Inf(-1)
	}
}

// FuzzReadShardReport feeds ReadShardReport arbitrary HTTP bodies: it
// must never panic, and a body it accepts must survive a re-encode and
// re-read unchanged.
func FuzzReadShardReport(f *testing.F) {
	var payloads [][]byte
	for _, rep := range []*ShardReport{{}, goldenShardReport(2), goldenShardReport(80)} {
		payload, err := encodeShardReport(rep)
		if err != nil {
			f.Fatal(err)
		}
		payloads = append(payloads, payload)
	}
	addSeeds(f, frame.New, payloads...)
	f.Fuzz(func(t *testing.T, body []byte) {
		rep, err := ReadShardReport(bytes.NewReader(body))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteShardReport(&buf, rep); err != nil {
			t.Fatal(err)
		}
		again, err := ReadShardReport(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*ShardReport{rep, again} {
			for i := range r.Moments {
				nanFree(&r.Moments[i].SumSquares)
			}
		}
		if !reflect.DeepEqual(rep, again) {
			t.Fatalf("round trip diverged:\n%+v\n%+v", rep, again)
		}
	})
}

// FuzzDecodeJournalPayload feeds the decoder segment replay runs on
// every checksummed journal frame arbitrary payloads: it must never
// panic, and a payload it accepts must survive a re-encode and re-decode
// unchanged.
func FuzzDecodeJournalPayload(f *testing.F) {
	payloads := [][]byte{goldenPayload(f, "journal-dict-seed")}
	for _, kind := range []string{recordDelta, recordSnapshot} {
		payload, err := encodeBinaryRecord(codecSampleRecord(kind))
		if err != nil {
			f.Fatal(err)
		}
		payloads = append(payloads, payload)
	}
	addSeeds(f, func(b []byte) []byte { return b }, payloads...)
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodePayload(payload)
		if err != nil || rec == nil {
			return
		}
		enc, err := encodeBinaryRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		again, err := decodePayload(enc)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*journalRecord{rec, again} {
			for i := range r.Bugs {
				nanFree(&r.Bugs[i].Impact)
			}
			for _, obs := range r.Trend {
				for i := range obs {
					nanFree(&obs[i].SumSquares)
				}
			}
		}
		if !reflect.DeepEqual(rec, again) {
			t.Fatalf("round trip diverged:\n%+v\n%+v", rec, again)
		}
	})
}

// replaySegmentSeeds returns four segments, each with its frame end
// offsets: two as a store writes them — a rolled delta segment and a
// compacted snapshot segment — one headed by the dictionary-seed frame
// earlier builds wrote at a roll, with a frame this build appended after
// its seeded data frame, and one whose snapshot and deltas span
// Horizon+2 sweeps, so its replay drops the first two sweeps'
// observations, the keys only they saw and a bug closed after the first.
func replaySegmentSeeds(f *testing.F) (segs [][]byte, ends [][]int64) {
	store, err := OpenStateStore(f.TempDir(), WithStateCompaction(1, 100))
	if err != nil {
		f.Fatal(err)
	}
	defer store.Close()
	keep := func(path string) {
		seg, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		segs = append(segs, seg)
		ends = append(ends, frameEnds(f, path))
	}
	for day := 1; day <= 4; day++ {
		if day == 3 {
			// Segment 2 opened with day 2's frame, against an empty
			// dictionary; keep appending to it from here on.
			store.segmentBytes = 1 << 20
		}
		keys := map[string]int{"/a.go:1": 100 * day, fmt.Sprintf("/d%d.go:%d", day, day): day}
		if err := recordDay(store, day, keys); err != nil {
			f.Fatal(err)
		}
	}
	keep(store.segmentPath(2))
	if err := store.Save(); err != nil {
		f.Fatal(err)
	}
	keep(store.segmentPath(3))

	seeded := filepath.Join(f.TempDir(), "segment-0001.log")
	if err := os.WriteFile(seeded, dictSeedSegment(f), 0o644); err != nil {
		f.Fatal(err)
	}
	resumed, err := OpenStateStore(filepath.Dir(seeded))
	if err != nil {
		f.Fatal(err)
	}
	if err := recordDay(resumed, 2, map[string]int{"/a.go:1": 5}); err != nil {
		f.Fatal(err)
	}
	if err := resumed.Close(); err != nil {
		f.Fatal(err)
	}
	keep(seeded)

	span, err := OpenStateStore(f.TempDir(), WithStateSync(SyncOnClose))
	if err != nil {
		f.Fatal(err)
	}
	defer span.Close()
	for day := 1; day <= Horizon+2; day++ {
		keys := map[string]int{"/a.go:1": 100 * day, fmt.Sprintf("/d%d.go:%d", day, day): day}
		if err := recordDay(span, day, keys); err != nil {
			f.Fatal(err)
		}
		if day == 1 {
			span.BugDB().SetStatus(svcKey("/d1.go:1"), report.StatusFixed)
		}
		if day == 2 {
			if err := span.Save(); err != nil {
				f.Fatal(err)
			}
		}
	}
	if err := span.Flush(); err != nil {
		f.Fatal(err)
	}
	keep(span.segmentPath(span.activeSeq))
	return segs, ends
}

// replayedState is what a store recovers from its journal, with NaNs
// mapped so arbitrary decoded floats compare equal to themselves, and
// times in UTC, as decoding returns them, so a live store compares equal
// to its replay.
type replayedState struct {
	Bugs  []report.Bug
	Trend map[string][]TrendObservation
	Last  *SweepRecord
}

func replayed(store *StateStore) replayedState {
	st := replayedState{Bugs: store.BugDB().All(), Trend: store.Tracker().Export(), Last: store.LastSweep()}
	for i := range st.Bugs {
		b := &st.Bugs[i]
		nanFree(&b.Impact)
		b.FiledAt, b.LastSeen = b.FiledAt.UTC(), b.LastSeen.UTC()
	}
	for key, obs := range st.Trend {
		obs = slices.Clone(obs) // Export's slices are the live history
		for i := range obs {
			nanFree(&obs[i].SumSquares)
			obs[i].At = obs[i].At.UTC()
		}
		st.Trend[key] = obs
	}
	if st.Last != nil {
		st.Last.At = st.Last.At.UTC()
	}
	return st
}

// FuzzReplaySegment writes arbitrary bytes as a state dir's only
// segment and opens it: the open must never panic, and a store that
// opens — truncating a torn tail on the way — must close and reopen to
// the same bug database, trend history, and last sweep.
func FuzzReplaySegment(f *testing.F) {
	segs, ends := replaySegmentSeeds(f)
	for i, seg := range segs {
		// The last frame ends at len(seg), so the whole segment is a seed.
		for _, end := range append([]int64{0}, ends[i]...) {
			for _, cut := range []int64{end - 1, end, end + 1} {
				if cut >= 0 && cut <= int64(len(seg)) {
					f.Add(seg[:cut])
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "segment-0001.log"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		store, err := OpenStateStore(dir)
		if err != nil {
			return
		}
		first := replayed(store)
		if err := store.Close(); err != nil {
			t.Fatalf("closing a replayed store: %v", err)
		}
		re, err := OpenStateStore(dir)
		if err != nil {
			t.Fatalf("reopening a store that opened once: %v", err)
		}
		defer re.Close()
		if again := replayed(re); !reflect.DeepEqual(first, again) {
			t.Fatalf("reopen diverged:\n%+v\n%+v", first, again)
		}
	})
}
