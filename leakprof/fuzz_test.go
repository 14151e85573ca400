package leakprof

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/frame"
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
	seed, err := encodeDictSeedPayload([]string{"svc", "send", "/a.go:1"})
	if err != nil {
		f.Fatal(err)
	}
	payloads := [][]byte{seed}
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
