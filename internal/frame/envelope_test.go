package frame

import (
	"bytes"
	"strings"
	"testing"
)

// TestEnvelopeInflationCap opens a compressed body against a cap below
// its inflated size: it must fail rather than inflate past the cap.
func TestEnvelopeInflationCap(t *testing.T) {
	format := Format{Name: "test record", Magic: 0xB9, Version: 4}
	body := make([]byte, 64<<10) // zeros: inflates ~1000x from a tiny payload
	payload, err := format.Seal(true, body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := format.open(payload, int64(len(body))-1); err == nil || !strings.Contains(err.Error(), "inflates past") {
		t.Fatalf("opening past the cap: err = %v", err)
	}
	if got, err := format.open(payload, int64(len(body))); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("opening at the cap = %d bytes, %v", len(got), err)
	}
}
