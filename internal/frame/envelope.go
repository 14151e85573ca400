package frame

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
)

// Every persisted format wraps its body in the same three-byte envelope
// inside the frame:
//
//	byte 0: magic (one per format, so a payload never decodes as another)
//	byte 1: version
//	byte 2: flags (flagFlate: the body is a flate stream)
//	rest:   body
const (
	envelopeHeader = 3
	flagFlate      = 1 << 0
)

// FlateMin is the body size below which size-gated formats ship their
// body uncompressed: a flate writer costs several hundred KB of
// allocation, which dwarfs a small body.
const FlateMin = 4 << 10

// ErrVersion marks a payload of a known format at a version this build
// does not read. Each format is read at exactly the version it writes.
var ErrVersion = errors.New("unsupported format version")

// Format is one envelope dialect: its magic byte, the single version
// this build reads and writes, and a name for error messages.
type Format struct {
	Name    string
	Magic   byte
	Version byte
}

// Seal wraps the concatenation of parts in the format's envelope,
// flate-compressing it when compress is set. The parts go to the
// compressor one by one, never joined into one buffer first, and flate
// output does not depend on how its input is split across writes. The
// result is a frame payload: it must fit the frame bound.
func (f Format) Seal(compress bool, parts ...[]byte) ([]byte, error) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	var payload []byte
	if !compress {
		payload = append(make([]byte, 0, envelopeHeader+n), f.Magic, f.Version, 0)
		for _, p := range parts {
			payload = append(payload, p...)
		}
	} else {
		// A journal snapshot deflates about sixfold (7.5 MB to 1.27 MB at
		// the end of an ingest-wide benchmark run), so a quarter of the
		// input holds the output in one allocation; output that needs
		// more grows the buffer as before.
		buf := bytes.NewBuffer(append(make([]byte, 0, envelopeHeader+n/4), f.Magic, f.Version, flagFlate))
		zw, err := flate.NewWriter(buf, flate.DefaultCompression)
		for _, p := range parts {
			if err == nil {
				_, err = zw.Write(p)
			}
		}
		if err == nil {
			err = zw.Close()
		}
		if err != nil {
			return nil, fmt.Errorf("compressing %s: %w", f.Name, err)
		}
		payload = buf.Bytes()
	}
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("%s of %d bytes exceeds the frame bound", f.Name, len(payload))
	}
	return payload, nil
}

// Open checks payload's magic and version against the format and returns
// its body, inflated when flagged. Inflation stops at MaxPayload bytes:
// a small hostile payload must not become an unbounded allocation.
func (f Format) Open(payload []byte) ([]byte, error) {
	return f.open(payload, MaxPayload)
}

func (f Format) open(payload []byte, limit int64) ([]byte, error) {
	if len(payload) < envelopeHeader {
		return nil, ErrTruncated
	}
	if payload[0] != f.Magic {
		return nil, fmt.Errorf("not a %s (leading byte 0x%02x, want 0x%02x at version %d)", f.Name, payload[0], f.Magic, f.Version)
	}
	if v := payload[1]; v != f.Version {
		rel := "newer"
		if v < f.Version {
			rel = "older"
		}
		return nil, fmt.Errorf("%w: %s version %d, %s than supported %d", ErrVersion, f.Name, v, rel, f.Version)
	}
	body := payload[envelopeHeader:]
	if payload[2]&flagFlate == 0 {
		return body, nil
	}
	zr := flate.NewReader(bytes.NewReader(body))
	defer zr.Close()
	// A doubling buffer allocates less in all than io.ReadAll's finer
	// growth: 1024 MiB against 1433 MiB to inflate a 256 MiB body.
	var out bytes.Buffer
	if _, err := out.ReadFrom(io.LimitReader(zr, limit+1)); err != nil {
		return nil, fmt.Errorf("inflating %s: %w", f.Name, err)
	}
	if int64(out.Len()) > limit {
		return nil, fmt.Errorf("%s body inflates past %d bytes", f.Name, limit)
	}
	return out.Bytes(), nil
}
