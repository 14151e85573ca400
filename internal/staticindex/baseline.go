package staticindex

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/atomicfile"
)

// Baseline is the checked-in accept-list a CI self-scan diffs new scans
// against: the set of findings the repo has triaged and chosen to live
// with. Entries are keyed (detector, file, function) — deliberately
// line-free, so routine edits that shift code do not churn the file.
type Baseline struct {
	entries map[string]struct{}
}

// baselineKey renders a finding's line-free identity; "-" stands in for
// the empty function of site lints.
func baselineKey(f Finding) string {
	fn := f.Function
	if fn == "" {
		fn = "-"
	}
	return f.Detector + "\t" + f.File + "\t" + fn
}

// Has reports whether the baseline covers the finding.
func (bl *Baseline) Has(f Finding) bool {
	if bl == nil || bl.entries == nil {
		return false
	}
	_, ok := bl.entries[baselineKey(f)]
	return ok
}

// Len returns the number of baseline entries.
func (bl *Baseline) Len() int {
	if bl == nil {
		return 0
	}
	return len(bl.entries)
}

// NewFindings returns the index's findings the baseline does not cover,
// in index order. An empty result means the scan is clean relative to
// the baseline; anything else is a regression the CI job fails on.
func (bl *Baseline) NewFindings(idx *Index) []Finding {
	var out []Finding
	for _, f := range idx.Findings {
		if !bl.Has(f) {
			out = append(out, f)
		}
	}
	return out
}

// WriteBaseline renders the index as baseline text: one tab-separated
// "detector\tfile\tfunction" line per distinct key, sorted, preceded by
// a comment header. The format is the one LoadBaseline parses.
func WriteBaseline(w io.Writer, idx *Index) error {
	keys := make(map[string]struct{}, len(idx.Findings))
	for _, f := range idx.Findings {
		keys[baselineKey(f)] = struct{}{}
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	if _, err := fmt.Fprintln(w, "# staticindex self-scan baseline: detector<TAB>file<TAB>function"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "# Regenerate with: go run ./cmd/leakrank -root . -write-baseline <path>"); err != nil {
		return err
	}
	for _, k := range sorted {
		if _, err := fmt.Fprintln(w, k); err != nil {
			return err
		}
	}
	return nil
}

// SaveBaseline writes the baseline for idx to path atomically.
func SaveBaseline(p string, idx *Index) error {
	return atomicfile.Write(p, func(w io.Writer) error { return WriteBaseline(w, idx) })
}

// LoadBaseline parses baseline text: blank lines and '#' comments are
// skipped; every other line must be "detector\tfile\tfunction".
func LoadBaseline(r io.Reader) (*Baseline, error) {
	bl := &Baseline{entries: make(map[string]struct{})}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if strings.Count(text, "\t") != 2 {
			return nil, fmt.Errorf("staticindex: baseline line %d: want detector\\tfile\\tfunction, got %q", line, text)
		}
		bl.entries[text] = struct{}{}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("staticindex: reading baseline: %w", err)
	}
	return bl, nil
}

// LoadBaselineFile reads a baseline from disk; a missing file is an
// empty baseline, so a repo bootstraps by running the scan once and
// committing the suggested file.
func LoadBaselineFile(p string) (*Baseline, error) {
	f, err := os.Open(p)
	if err != nil {
		if os.IsNotExist(err) {
			return &Baseline{entries: map[string]struct{}{}}, nil
		}
		return nil, err
	}
	defer f.Close()
	return LoadBaseline(f)
}
