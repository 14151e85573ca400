package frame

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
	"time"
)

func readAll(t *testing.T, data []byte) ([][]byte, error) {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(data))
	remaining := int64(len(data))
	var payloads [][]byte
	for {
		payload, n, err := Read(br, remaining)
		if err == io.EOF {
			return payloads, nil
		}
		if err != nil {
			return payloads, err
		}
		payloads = append(payloads, payload)
		remaining -= n
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := [][]byte{[]byte("a"), bytes.Repeat([]byte{0xAB}, 4096), bytes.Repeat([]byte{0xCD}, 3*readChunk), []byte("tail")}
	for _, p := range want {
		if err := Write(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	// New must produce the identical encoding Write streams.
	var manual []byte
	for _, p := range want {
		manual = append(manual, New(p)...)
	}
	if !bytes.Equal(manual, buf.Bytes()) {
		t.Fatal("New and Write disagree on the frame encoding")
	}
	got, err := readAll(t, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
	// ReadOne consumes exactly one frame per call, then reports io.EOF.
	for i := range want {
		if p, err := ReadOne(&buf); err != nil || !bytes.Equal(p, want[i]) {
			t.Fatalf("ReadOne frame %d = %d bytes, %v", i, len(p), err)
		}
	}
	if _, err := ReadOne(&buf); err != io.EOF {
		t.Fatalf("ReadOne at the end: err = %v, want io.EOF", err)
	}
}

func TestFrameTornTail(t *testing.T) {
	full := New([]byte("complete"))
	next := New([]byte("the-next"))
	for cut := 1; cut < len(next); cut++ {
		torn := append(append([]byte{}, full...), next[:cut]...)
		got, err := readAll(t, torn)
		if !errors.Is(err, ErrTorn) {
			t.Fatalf("cut=%d: err = %v, want ErrTorn", cut, err)
		}
		if len(got) != 1 {
			t.Fatalf("cut=%d: the complete frame before the tear must decode", cut)
		}
		if _, err := ReadOne(bytes.NewReader(next[:cut])); !errors.Is(err, ErrTorn) {
			t.Fatalf("cut=%d: ReadOne err = %v, want ErrTorn", cut, err)
		}
	}
}

func TestFrameCorruptMiddle(t *testing.T) {
	data := append(New([]byte("first")), New([]byte("second"))...)
	data[HeaderSize+2] ^= 0xFF // flip a payload bit in the first frame
	_, err := readAll(t, data)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt for a damaged frame with data following", err)
	}
	if _, err := ReadOne(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadOne err = %v, want ErrCorrupt", err)
	}
	// The same damage on the last frame is a torn append, not corruption.
	tail := New([]byte("only"))
	tail[HeaderSize] ^= 0xFF
	if _, err := readAll(t, tail); !errors.Is(err, ErrTorn) {
		t.Fatalf("err = %v, want ErrTorn for a damaged tail frame", err)
	}
}

func TestFrameImplausibleLengthDoesNotAllocate(t *testing.T) {
	header := make([]byte, HeaderSize)
	header[0], header[1], header[2], header[3] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := readAll(t, header); !errors.Is(err, ErrTorn) {
		t.Fatalf("err = %v, want ErrTorn for a length past MaxPayload", err)
	}
	if _, err := ReadOne(bytes.NewReader(header)); !errors.Is(err, ErrTorn) {
		t.Fatalf("ReadOne err = %v, want ErrTorn for a length past MaxPayload", err)
	}
}

func TestBodyPrimitivesRoundTrip(t *testing.T) {
	at := time.Date(2026, 8, 7, 12, 0, 0, 42, time.UTC)
	tbl := NewDictTable(NewDict(), 0)
	refs := []uint64{tbl.Ref("svc"), tbl.Ref("op"), tbl.Ref("svc")}
	if refs[0] != refs[2] {
		t.Fatal("Ref did not deduplicate")
	}
	body := tbl.AppendTo(nil)
	for _, r := range refs {
		body = appendUvarint(body, r)
	}
	body = appendVarint(body, -7)
	body = AppendFloat(body, math.Pi)
	body = AppendTime(body, at)
	body = AppendTime(body, time.Time{})

	r := NewReader(body)
	strs := r.StringTable()
	if len(strs) != 2 {
		t.Fatalf("StringTable: %v (%d strings)", r.Err(), len(strs))
	}
	for i, want := range []string{"svc", "op", "svc"} {
		if got := r.Str(strs); got != want {
			t.Fatalf("ref %d: got %q err %v", i, got, r.Err())
		}
	}
	if v := r.Varint(); v != -7 {
		t.Fatalf("Varint: %d, %v", v, r.Err())
	}
	if f := r.Float64(); f != math.Pi {
		t.Fatalf("Float64: %v, %v", f, r.Err())
	}
	if ts := r.Time(); !ts.Equal(at) {
		t.Fatalf("Time: %v, %v", ts, r.Err())
	}
	if ts := r.Time(); !ts.IsZero() {
		t.Fatalf("zero Time did not survive: %v, %v", ts, r.Err())
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderRejectsCorruptBodies(t *testing.T) {
	// A truncated varint.
	r := NewReader([]byte{0x80})
	if r.Uvarint(); !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Uvarint on a dangling continuation byte: %v", r.Err())
	}
	// A count that cannot fit in the remaining bytes.
	r = NewReader(appendUvarint(nil, 1<<20))
	if n := r.Count(8); n != 0 || r.Err() == nil {
		t.Fatalf("Count accepted an implausible element count: %d", n)
	}
	// A string reference past the table.
	r = NewReader(appendUvarint(nil, 9))
	if r.Str([]string{"only"}); r.Err() == nil {
		t.Fatal("Str accepted an out-of-range table reference")
	}
	// A read past the end.
	r = NewReader([]byte{1, 2})
	if r.Float64(); !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Float64 past end: %v", r.Err())
	}
	// A string length that overflows the offset arithmetic.
	r = NewReader(appendUvarint([]byte{1}, math.MaxInt64))
	if strs := r.StringTable(); strs != nil || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("StringTable with an overflowing length: %q, %v", strs, r.Err())
	}
	// The first error sticks: later reads yield zero values and counts,
	// even over bytes that would decode.
	r = NewReader(append([]byte{0x80}, appendUvarint(nil, 5)...))
	r.Uvarint()
	if v, n := r.Uvarint(), r.Count(1); v != 0 || n != 0 || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("after an error: Uvarint %d, Count %d, err %v", v, n, r.Err())
	}
}

// appendUvarint/appendVarint mirror encoding/binary's helpers locally so
// the test exercises the exact byte layout Reader expects.
func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func appendVarint(b []byte, v int64) []byte {
	uv := uint64(v) << 1
	if v < 0 {
		uv = ^uv
	}
	return appendUvarint(b, uv)
}
