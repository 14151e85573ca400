// Package staticindex closes the static half of the paper's loop: it is
// the unified driver that runs the full static detector suite — all
// three staticbase configurations (GCatch-like, GOAT-like, GOMELA-like)
// plus the astcheck lints — over a source tree, persists the findings as
// an index with stable keys, and joins that index against production
// evidence (the report.DB bug database and TrendTracker verdicts) to
// produce evidence-ranked findings and machine-generated goleak
// suppressions.
//
// The paper runs its halves in isolation: static analyzers report with
// ~34–51% precision (Table III), while the dynamic profiler is precise
// but only sees what production exercised. The index is the join point:
// a static alarm confirmed by production sightings is near-certainly
// real; a static alarm production has never sighted — over months of
// sweeps covering the fleet — is a suppression candidate; a production
// sighting with no static alarm is the dynamic tool earning its keep.
package staticindex

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/astcheck"
	"repro/internal/atomicfile"
	"repro/internal/frame"
	"repro/internal/staticbase"
)

// Detector ids, as recorded in Finding.Detector. The staticbase ids are
// the Config names; the astcheck ids are the check names.
const (
	DetectorGCatch    = "gcatch-like"
	DetectorGoat      = "goat-like"
	DetectorGomela    = "gomela-like"
	DetectorRangeLint = "rangelint"
	DetectorDblSend   = "doublesend"
	DetectorTimerLoop = "timerloop"
	// DetectorTransient is the transient-select annotation. Unlike every
	// other detector it does not claim a defect: it marks select sites
	// whose blocking arms are all provably transient (time.After,
	// ctx.Done, ...), i.e. sites where a production sighting is expected
	// and harmless. The cross-linker treats it as exculpatory evidence,
	// never as an alarm.
	DetectorTransient = "transient-select"
)

// IsAlarm reports whether detector claims a defect (everything except
// the transient-select annotation).
func IsAlarm(detector string) bool { return detector != DetectorTransient }

// Finding is one static report with the index's stable identity: the
// five fields (file, function, line, detector, reason) are the key, so
// re-scanning an unchanged tree yields byte-identical indexes and
// baselines diff cleanly.
type Finding struct {
	// Detector is the producing detector's id.
	Detector string
	// File is the tree-relative path of the flagged code.
	File string
	// Function is the enclosing function declaration's name; empty for
	// the astcheck lints, which report sites, not functions.
	Function string
	// Line is the flagged line.
	Line int
	// Reason is the detector's diagnostic.
	Reason string
}

// Key is the finding's stable identity.
func (f Finding) Key() string {
	return f.File + "\x00" + f.Function + "\x00" +
		fmt.Sprintf("%d", f.Line) + "\x00" + f.Detector + "\x00" + f.Reason
}

// String renders the finding as a compiler-style diagnostic.
func (f Finding) String() string {
	fn := f.Function
	if fn == "" {
		fn = "-"
	}
	return fmt.Sprintf("%s:%d: %s: %s: %s", f.File, f.Line, f.Detector, fn, f.Reason)
}

// Index is one scan's persisted findings.
type Index struct {
	// Root records what was scanned (a tree path or a corpus label).
	Root string
	// GeneratedAt is the scan timestamp.
	GeneratedAt time.Time
	// Findings are sorted by Key for stable diffs.
	Findings []Finding
}

// Scan runs the full detector suite over a corpus of (path, source)
// pairs and returns the deduplicated, key-sorted index.
func Scan(files map[string]string) *Index {
	idx := &Index{}
	seen := map[string]bool{}
	add := func(f Finding) {
		if k := f.Key(); !seen[k] {
			seen[k] = true
			idx.Findings = append(idx.Findings, f)
		}
	}

	for _, cfg := range []staticbase.Config{
		staticbase.GCatchLike(), staticbase.GoatLike(), staticbase.GomelaLike(),
	} {
		a := &staticbase.Analyzer{Cfg: cfg}
		for _, sf := range a.AnalyzeFiles(files) {
			add(Finding{
				Detector: sf.Tool,
				File:     sf.File,
				Function: sf.Function,
				Line:     sf.Pos.Line,
				Reason:   sf.Reason,
			})
		}
	}

	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		af, err := astcheck.ParseSource(p, files[p])
		if err != nil {
			continue // tolerate unparseable files, like the analyzers do
		}
		var lints []astcheck.Finding
		lints = append(lints, astcheck.RangeLint(af)...)
		lints = append(lints, astcheck.DoubleSendLint(af)...)
		lints = append(lints, astcheck.TimerLoopLint(af)...)
		lints = append(lints, astcheck.TransientSelects(af)...)
		for _, lf := range lints {
			add(Finding{
				Detector: lf.Check,
				File:     lf.Pos.Filename,
				Line:     lf.Pos.Line,
				Reason:   lf.Message,
			})
		}
	}

	sort.Slice(idx.Findings, func(i, j int) bool {
		return idx.Findings[i].Key() < idx.Findings[j].Key()
	})
	return idx
}

// ScanTree scans every .go file under root, skipping directories named
// "testdata" and _test.go files (static alarms exist to be joined
// against production sites; test code never runs there). File paths in
// the index are root-relative with forward slashes.
func ScanTree(root string) (*Index, error) {
	files := map[string]string{}
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			if info.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			rel = path
		}
		files[filepath.ToSlash(rel)] = string(src)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("staticindex: walking %s: %w", root, err)
	}
	idx := Scan(files)
	idx.Root = root
	return idx, nil
}

// On-disk format: one internal/frame frame (length prefix and CRC-32)
// around a payload envelope of magic 0xB3 (journal records are 0xB1,
// shard reports 0xB2), version, and flags, with the body flate-
// compressed once it reaches frame.FlateMin. The body reuses the journal
// codec's primitives — one string table shared by every finding
// (detector ids and file paths repeat heavily), varints, presence-byte
// timestamps. Version 1 is the only version this build reads or writes.
var indexFormat = frame.Format{Name: "findings index", Magic: 0xB3, Version: 1}

// WriteTo writes the index as one framed record.
func (idx *Index) WriteTo(w io.Writer) (int64, error) {
	tbl := frame.NewDictTable(frame.NewDict())
	body := idx.encodeBody(tbl)
	full := tbl.AppendTo(make([]byte, 0, len(body)+64))
	full = append(full, body...)
	payload, err := indexFormat.Seal(full, len(full) >= frame.FlateMin)
	if err != nil {
		return 0, fmt.Errorf("staticindex: %w", err)
	}
	if err := frame.Write(w, payload); err != nil {
		return 0, fmt.Errorf("staticindex: writing index: %w", err)
	}
	return int64(frame.HeaderSize + len(payload)), nil
}

func (idx *Index) encodeBody(tbl *frame.DictTable) []byte {
	b := make([]byte, 0, 64*len(idx.Findings)+64)
	b = binary.AppendUvarint(b, tbl.Ref(idx.Root))
	b = frame.AppendTime(b, idx.GeneratedAt)
	b = binary.AppendUvarint(b, uint64(len(idx.Findings)))
	for _, f := range idx.Findings {
		b = binary.AppendUvarint(b, tbl.Ref(f.Detector))
		b = binary.AppendUvarint(b, tbl.Ref(f.File))
		b = binary.AppendUvarint(b, tbl.Ref(f.Function))
		b = binary.AppendVarint(b, int64(f.Line))
		b = binary.AppendUvarint(b, tbl.Ref(f.Reason))
	}
	return b
}

// ReadFrom reads one framed index written by WriteTo. The reader may
// hold trailing data; exactly one frame is consumed.
func ReadFrom(r io.Reader) (*Index, error) {
	payload, err := frame.ReadOne(r)
	if err != nil {
		return nil, fmt.Errorf("staticindex: reading index: %w", err)
	}
	return decodeIndex(payload)
}

func decodeIndex(payload []byte) (*Index, error) {
	body, err := indexFormat.Open(payload)
	if err != nil {
		return nil, fmt.Errorf("staticindex: %w", err)
	}
	r := frame.NewReader(body)
	tbl := r.StringTable()
	idx := &Index{}
	idx.Root = r.Str(tbl)
	idx.GeneratedAt = r.Time()
	if n := r.Count(5); n > 0 {
		idx.Findings = make([]Finding, n)
	}
	for i := range idx.Findings {
		f := &idx.Findings[i]
		f.Detector = r.Str(tbl)
		f.File = r.Str(tbl)
		f.Function = r.Str(tbl)
		f.Line = r.Int()
		f.Reason = r.Str(tbl)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return idx, nil
}

// Save writes the index to path atomically (see atomicfile.Write).
func (idx *Index) Save(path string) error {
	err := atomicfile.Write(path, func(w io.Writer) error {
		_, err := idx.WriteTo(w)
		return err
	})
	if err != nil {
		return fmt.Errorf("staticindex: saving index: %w", err)
	}
	return nil
}

// Load reads an index file written by Save.
func Load(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("staticindex: loading index: %w", err)
	}
	defer f.Close()
	idx, err := ReadFrom(bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("staticindex: loading index %s: %w", path, err)
	}
	return idx, nil
}
