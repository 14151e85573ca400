// Package frame holds the on-disk framing and binary-body primitives the
// leakprof journal introduced and every other persisted format in the
// repo now shares: the durable state journal's segment frames, the
// distributed sweep plane's shard-report wire format, and the static-
// analysis findings index.
//
// A frame is a 4-byte big-endian payload length followed by a 4-byte
// CRC-32 (IEEE) of the payload, then the payload itself — enough to
// detect a torn append (a crash mid-write) or a bit-flipped record
// before any decoder runs. Read distinguishes the two: a damaged frame
// at the very end of its input is torn (recoverable by truncation),
// while a damaged frame with data following it is corruption a caller
// must refuse to silently drop.
//
// The body primitives are the binary-codec building blocks: varints
// (zigzag for signed), 8-byte little-endian IEEE floats, presence-byte
// timestamps (so the zero time survives a round trip), and a
// deduplicating string table (DictTable) serialized ahead of the
// sections that reference it. Reader walks such a body with bounds
// checking: corrupt input (which the CRC should have caught, but
// defense costs little) must produce an error, never a panic or an
// absurd allocation. Every format wraps its body in the shared payload
// envelope (Format.Seal and Format.Open).
package frame

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"
)

// HeaderSize is the per-frame framing overhead: a 4-byte big-endian
// payload length followed by a 4-byte CRC-32 (IEEE) of the payload.
const HeaderSize = 8

// MaxPayload bounds one frame's payload; a length prefix beyond it is
// treated as corruption rather than an allocation request.
const MaxPayload = 1 << 30

// ErrTorn marks a frame consistent with a crash mid-append: it stops at
// the end of the input, so a recovering reader may truncate it away.
var ErrTorn = errors.New("torn journal frame")

// ErrCorrupt marks a frame that fails its checksum while complete data
// follows it — bit rot, not a torn tail — which a reader must surface
// rather than silently truncate.
var ErrCorrupt = errors.New("corrupt journal frame")

// ErrTruncated reports a binary body that ended mid-field.
var ErrTruncated = errors.New("frame: truncated binary record")

// New renders payload as one framed, checksummed byte slice.
func New(payload []byte) []byte {
	out := make([]byte, HeaderSize+len(payload))
	binary.BigEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	copy(out[HeaderSize:], payload)
	return out
}

// Write frames payload and writes it to w.
func Write(w io.Writer, payload []byte) error {
	_, err := w.Write(New(payload))
	return err
}

// Read decodes one frame from br, with remaining the bytes left in the
// input from the frame's start. It returns (payload, total frame length,
// error): io.EOF means a clean end, ErrTorn a frame that stops at
// end-of-file (a crash mid-append), and ErrCorrupt a checksum failure
// with data following it (bit rot, not a torn tail). A frame whose
// claimed length extends past the end of the input is torn by
// construction, so no allocation is made for it — a corrupt length
// prefix must not become a gigabyte allocation during recovery.
func Read(br *bufio.Reader, remaining int64) ([]byte, int64, error) {
	length, sum, err := readHeader(br)
	if err != nil {
		return nil, 0, err
	}
	frameLen := HeaderSize + int64(length)
	if frameLen > remaining {
		return nil, 0, fmt.Errorf("%w: frame of %d bytes extends past end of segment", ErrTorn, frameLen)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(br, payload); err != nil {
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, 0, ErrTorn
		}
		return nil, 0, err
	}
	if crc32.ChecksumIEEE(payload) != sum {
		if frameLen == remaining {
			// The damaged frame is the input's last: a torn append.
			return nil, 0, fmt.Errorf("%w: checksum mismatch on the tail frame", ErrTorn)
		}
		return nil, 0, fmt.Errorf("%w: checksum mismatch with %d bytes of journal following", ErrCorrupt, remaining-frameLen)
	}
	return payload, frameLen, nil
}

// readChunk caps the buffer ReadOne reserves before payload bytes
// arrive.
const readChunk = 64 << 10

// ReadOne reads exactly one frame from r and returns its checksummed
// payload. It is the reader for inputs holding a single frame (an HTTP
// body, an index file), where no segment length bounds the claim in the
// length prefix: the buffer grows only as payload bytes arrive, so an
// 8-byte input claiming a gigabyte allocates almost nothing. A clean end
// before the header is io.EOF; a frame cut short is ErrTorn; a checksum
// failure is ErrCorrupt.
func ReadOne(r io.Reader) ([]byte, error) {
	length, sum, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Grow(int(min(length, readChunk)))
	if _, err := io.CopyN(&buf, r, int64(length)); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("%w: input ends %d bytes into a %d-byte payload", ErrTorn, buf.Len(), length)
		}
		return nil, err
	}
	if crc32.ChecksumIEEE(buf.Bytes()) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return buf.Bytes(), nil
}

// readHeader reads one frame header and returns the payload length and
// checksum it declares. io.EOF means a clean end; a header cut short,
// or a length no frame may have, is ErrTorn.
func readHeader(r io.Reader) (length, sum uint32, err error) {
	var header [HeaderSize]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, 0, ErrTorn
		}
		return 0, 0, err
	}
	length = binary.BigEndian.Uint32(header[0:4])
	if length == 0 || length > MaxPayload {
		return 0, 0, fmt.Errorf("%w: implausible frame length %d", ErrTorn, length)
	}
	return length, binary.BigEndian.Uint32(header[4:8]), nil
}

// AppendTime appends a presence byte plus a zigzag varint of UnixNano,
// so the zero time survives a round trip.
func AppendTime(b []byte, at time.Time) []byte {
	if at.IsZero() {
		return append(b, 0)
	}
	b = append(b, 1)
	return binary.AppendVarint(b, at.UnixNano())
}

// AppendFloat appends the 8-byte little-endian IEEE bits of f.
func AppendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// Reader walks a binary body with bounds checking. The first error
// sticks: every later call returns a zero value, and Count returns 0 so
// no loop runs over bytes past the damage. A decoder reads its fields
// unconditionally and checks Err once, at the end.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over body.
func NewReader(body []byte) *Reader { return &Reader{b: body} }

// Err returns the first error the reader hit, or nil.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uvarint decodes one unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.off += n
	return v
}

// Varint decodes one zigzag varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.off += n
	return v
}

// Int decodes one zigzag varint as an int.
func (r *Reader) Int() int { return int(r.Varint()) }

// Count decodes an element count, refusing counts that could not fit in
// the remaining bytes at elemMin bytes per element.
func (r *Reader) Count(elemMin int) int {
	v := r.Uvarint()
	// A count cannot exceed the bytes left to encode its elements.
	if max := len(r.b) - r.off; elemMin > 0 && v > uint64(max/elemMin)+1 {
		r.fail(fmt.Errorf("frame: binary record claims %d elements with %d bytes left", v, max))
		return 0
	}
	return int(v)
}

// take returns the next n raw bytes, or nil past the end.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.fail(ErrTruncated)
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

// Byte decodes one raw byte.
func (r *Reader) Byte() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// Float64 decodes an 8-byte little-endian IEEE float.
func (r *Reader) Float64() float64 {
	if raw := r.take(8); raw != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(raw))
	}
	return 0
}

// Time decodes a presence-byte timestamp written by AppendTime.
func (r *Reader) Time() time.Time {
	if r.Byte() == 0 {
		return time.Time{}
	}
	return time.Unix(0, r.Varint()).UTC()
}

// Str decodes a string-table reference against tbl.
func (r *Reader) Str(tbl []string) string {
	i := r.Uvarint()
	if i >= uint64(len(tbl)) {
		r.fail(fmt.Errorf("frame: binary record references string %d of %d", i, len(tbl)))
		return ""
	}
	return tbl[i]
}

// StringTable decodes a serialized table (the DictTable.AppendTo layout)
// from the reader's current position; it returns nil once the reader
// has failed.
func (r *Reader) StringTable() []string {
	tbl := make([]string, r.Count(1))
	for i := range tbl {
		tbl[i] = string(r.take(int(r.Uvarint())))
	}
	if r.err != nil {
		return nil
	}
	return tbl
}
