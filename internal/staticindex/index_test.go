package staticindex

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/synth"
)

// corpusFiles renders the synth corpus as Scan input (non-test files
// only, as ScanTree would select).
func corpusFiles(t testing.TB) map[string]string {
	t.Helper()
	corpus := synth.Generate(synth.DefaultConfig())
	files := map[string]string{}
	for _, f := range corpus.Files() {
		if f.Test {
			continue
		}
		files[f.Path] = f.Content
	}
	return files
}

func TestScanDeterministicSortedDeduped(t *testing.T) {
	files := corpusFiles(t)
	idx := Scan(files)
	if len(idx.Findings) == 0 {
		t.Fatal("scan over the synth corpus produced no findings; the corpus plants leaks the analyzers must flag")
	}
	seen := map[string]bool{}
	for i, f := range idx.Findings {
		k := f.Key()
		if seen[k] {
			t.Fatalf("duplicate finding key %q", k)
		}
		seen[k] = true
		if i > 0 && !(idx.Findings[i-1].Key() < k) {
			t.Fatalf("findings not sorted by key at %d: %q !< %q", i, idx.Findings[i-1].Key(), k)
		}
	}
	again := Scan(files)
	if !reflect.DeepEqual(idx.Findings, again.Findings) {
		t.Fatal("re-scanning the same corpus produced a different index")
	}
	// Both detector families must contribute: the suite is a union, not
	// one analyzer.
	byDetector := map[string]int{}
	for _, f := range idx.Findings {
		byDetector[f.Detector]++
	}
	for _, det := range []string{DetectorGCatch, DetectorGoat, DetectorGomela} {
		if byDetector[det] == 0 {
			t.Errorf("no findings from %s", det)
		}
	}
}

func TestIndexRoundTrip(t *testing.T) {
	files := corpusFiles(t)
	idx := Scan(files)
	idx.Root = "synth-corpus"
	idx.GeneratedAt = time.Unix(1700000000, 123456789)

	var buf bytes.Buffer
	n, err := idx.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Root != idx.Root {
		t.Fatalf("Root = %q, want %q", got.Root, idx.Root)
	}
	if !got.GeneratedAt.Equal(idx.GeneratedAt) {
		t.Fatalf("GeneratedAt = %v, want %v", got.GeneratedAt, idx.GeneratedAt)
	}
	if !reflect.DeepEqual(got.Findings, idx.Findings) {
		t.Fatalf("findings did not round-trip: got %d, want %d", len(got.Findings), len(idx.Findings))
	}
}

func TestIndexSaveLoad(t *testing.T) {
	idx := &Index{
		Root:        "tiny",
		GeneratedAt: time.Unix(1700000000, 0),
		Findings: []Finding{
			{Detector: DetectorGCatch, File: "a/a.go", Function: "f", Line: 3, Reason: "r"},
		},
	}
	path := filepath.Join(t.TempDir(), "idx.bin")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Findings, idx.Findings) || got.Root != idx.Root {
		t.Fatalf("Load = %+v, want %+v", got, idx)
	}
}

func TestIndexRejectsForeignAndNewer(t *testing.T) {
	var buf bytes.Buffer
	// A journal frame (0xB1) is not an index.
	buf.Write(frame.New([]byte{0xB1, 1, 0}))
	if _, err := ReadFrom(&buf); err == nil || !strings.Contains(err.Error(), "not a findings index") {
		t.Fatalf("foreign magic error = %v", err)
	}
	buf.Reset()
	buf.Write(frame.New([]byte{indexFormat.Magic, indexFormat.Version + 1, 0}))
	if _, err := ReadFrom(&buf); err == nil || !strings.Contains(err.Error(), "newer than supported") {
		t.Fatalf("newer version error = %v", err)
	}
}

func TestBaselineRoundTripAndDiff(t *testing.T) {
	idx := &Index{Findings: []Finding{
		{Detector: DetectorGCatch, File: "a/a.go", Function: "f", Line: 3, Reason: "r1"},
		{Detector: DetectorGCatch, File: "a/a.go", Function: "f", Line: 9, Reason: "r2"}, // same line-free key
		{Detector: DetectorDblSend, File: "b/b.go", Function: "", Line: 7, Reason: "double send"},
	}}
	var buf bytes.Buffer
	if err := WriteBaseline(&buf, idx); err != nil {
		t.Fatal(err)
	}
	bl, err := LoadBaseline(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if bl.Len() != 2 {
		t.Fatalf("baseline entries = %d, want 2 (line-free keys collapse)", bl.Len())
	}
	if n := bl.NewFindings(idx); len(n) != 0 {
		t.Fatalf("baseline of the index itself reports %d new findings: %v", len(n), n)
	}
	// A shifted line is not new; a new detector hit is.
	shifted := &Index{Findings: []Finding{
		{Detector: DetectorGCatch, File: "a/a.go", Function: "f", Line: 100, Reason: "r1"},
		{Detector: DetectorGoat, File: "a/a.go", Function: "g", Line: 4, Reason: "r3"},
	}}
	n := bl.NewFindings(shifted)
	if len(n) != 1 || n[0].Function != "g" {
		t.Fatalf("NewFindings = %v, want exactly the goat-like hit on g", n)
	}
	// Missing baseline file == empty baseline.
	missing, err := LoadBaselineFile(filepath.Join(t.TempDir(), "nope"))
	if err != nil {
		t.Fatal(err)
	}
	if missing.Len() != 0 || missing.Has(idx.Findings[0]) {
		t.Fatal("missing baseline file should behave as empty")
	}
}
