package staticindex

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// goldenIndex builds an index of n findings: a handful keeps its body
// below the flate floor, many push it above.
func goldenIndex(n int) *Index {
	idx := &Index{Root: "golden", GeneratedAt: time.Unix(1700000000, 123).UTC()}
	for i := 0; i < n; i++ {
		idx.Findings = append(idx.Findings, Finding{
			Detector: []string{DetectorGCatch, DetectorRangeLint}[i%2],
			File:     fmt.Sprintf("svc/handler%03d.go", i),
			Function: fmt.Sprintf("serve%03d", i),
			Line:     10 + i,
			Reason:   fmt.Sprintf("send on unbuffered channel ch%03d may block forever", i),
		})
	}
	return idx
}

// TestIndexGoldenBytes pins the bytes WriteTo produces on both sides of
// the flate floor against testdata/golden, recorded before the payload
// envelope moved into internal/frame.
func TestIndexGoldenBytes(t *testing.T) {
	for name, n := range map[string]int{"index-small": 2, "index-large": 80} {
		var buf bytes.Buffer
		if _, err := goldenIndex(n).WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".hex"))
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != strings.TrimSpace(string(want)) {
			t.Errorf("%s drifted from testdata/golden:\ngot  %s\nwant %s", name, got, want)
		}
	}
}
