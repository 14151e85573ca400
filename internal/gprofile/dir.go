package gprofile

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// DirWriter streams snapshots into a directory archive one at a time, the
// write-through path production sweeps use to record themselves: each
// snapshot is written as its fetch completes, so archiving a sweep never
// holds more than one snapshot — and within a snapshot, each blocked
// cluster is written as one count-annotated record (WriteSnapshot), not
// one record per goroutine. Files are named <service>_<instance>.txt in
// the debug=2 encoding ScanDir reads back. Write is safe for concurrent
// use.
type DirWriter struct {
	dir     string
	mu      sync.Mutex             // guards names and entries
	names   map[string]*sync.Mutex // per-file locks
	entries map[string]dirEntry    // manifest index of written members
}

// dirEntry is the manifest metadata for one written member.
type dirEntry struct {
	service, instance string
}

// NewDirWriter creates dir (and parents) and returns a writer into it.
func NewDirWriter(dir string) (*DirWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("gprofile: creating %s: %w", dir, err)
	}
	return &DirWriter{dir: dir, names: make(map[string]*sync.Mutex), entries: make(map[string]dirEntry)}, nil
}

// Dir returns the archive directory.
func (w *DirWriter) Dir() string { return w.dir }

// nameLock returns the lock for one archive file: writers of distinct
// files proceed in parallel (the collection workers all write through
// here mid-sweep); only a repeated (service, instance) pair serialises,
// so its overwrite is atomic rather than interleaved.
func (w *DirWriter) nameLock(name string) *sync.Mutex {
	w.mu.Lock()
	defer w.mu.Unlock()
	m := w.names[name]
	if m == nil {
		m = &sync.Mutex{}
		w.names[name] = m
	}
	return m
}

// Write archives one snapshot. Distinct (service, instance) pairs land
// in distinct files and write concurrently; a repeated pair within one
// archive overwrites (last complete snapshot wins).
func (w *DirWriter) Write(s *Snapshot) error {
	name := fmt.Sprintf("%s_%s.txt", sanitize(s.Service), sanitize(s.Instance))
	lock := w.nameLock(name)
	lock.Lock()
	defer lock.Unlock()
	f, err := os.Create(filepath.Join(w.dir, name))
	if err != nil {
		return fmt.Errorf("gprofile: creating %s: %w", name, err)
	}
	bw := bufio.NewWriter(f)
	werr := WriteSnapshot(bw, s)
	if ferr := bw.Flush(); werr == nil {
		werr = ferr
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("gprofile: writing %s: %w", name, werr)
	}
	w.mu.Lock()
	w.entries[name] = dirEntry{service: s.Service, instance: s.Instance}
	w.mu.Unlock()
	return nil
}

// WriteSnapshot renders the snapshot's blocked counts to w as a plain
// debug=2 dump. Only the blocked goroutines are rendered: the rest of
// the population is not in the snapshot, so a replayed archive counts
// only its blocked goroutines in TotalGoroutines. Each cluster is
// written as one count-annotated record — "goroutine N [chan send, 2000
// times]:" — instead of being expanded into 2000 identical blocks: a
// 100K-goroutine cluster costs one record on disk and one record's
// worth of allocation to write and to scan back (the scanner recovers
// the count via stack.Goroutine.Count). A reader without count support
// still sees a well-formed record standing for the cluster's location.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	id := int64(1 << 20)
	for op, n := range s.PreAggregated {
		state := "chan " + op.Op
		if op.Op == "select" {
			state = "select"
		}
		if op.NilChannel {
			state += " (nil chan)"
		}
		ann := ""
		if n > 1 {
			ann = fmt.Sprintf(", %d times", n)
		}
		if _, err := fmt.Fprintf(w, "\ngoroutine %d [%s%s]:\n%s()\n\t%s +0x1\n",
			id, state, ann, op.Function, op.Location); err != nil {
			return err
		}
		id++
	}
	return nil
}

// ScanDir streams every <service>_<instance>.txt profile in dir through
// the incremental scanner, one file at a time, and acts on each file's
// ScanSnapshot verdict: fail (optional) receives its error when it has
// one, and emit its snapshot when it has one. So a clean file is
// emitted; a file whose scan resynced past corrupt or torn members is
// emitted with the rest of its members and reported as salvaged; and a
// file that cannot be read, or that is non-empty but holds no goroutine
// member, is reported and not emitted. An empty file replays as a
// profile of zero goroutines, which is what DirWriter leaves for an
// instance with nothing blocked. When the directory carries a manifest
// (WriteManifest), the recorded sweep time overrides takenAt, so replays
// of archived sweeps keep their original cadence. It never builds
// goroutine records or holds more than one open file, so archives
// recorded at production scale replay in O(locations) memory.
// Cancelling ctx stops the replay between files.
func ScanDir(ctx context.Context, dir string, takenAt time.Time, emit func(*Snapshot), fail func(name string, err error)) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("gprofile: reading %s: %w", dir, err)
	}
	switch m, merr := ReadManifest(dir); {
	case merr != nil:
		// A torn manifest must not take the member files with it: replay
		// with the caller's timestamp and report the manifest as corrupt.
		if fail != nil {
			fail(ManifestName, merr)
		}
	case m != nil && !m.SweepAt.IsZero():
		takenAt = m.SweepAt
	}
	for _, e := range entries {
		if err := ctx.Err(); err != nil {
			return err
		}
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".txt") {
			continue
		}
		service, instance := splitArchiveName(e.Name())
		snap, err := scanFile(filepath.Join(dir, e.Name()), service, instance, takenAt)
		if err != nil && fail != nil {
			fail(e.Name(), err)
		}
		if snap != nil {
			emit(snap)
		}
	}
	return nil
}

// scanFile returns ScanSnapshot's verdict on one archive member.
func scanFile(path, service, instance string, takenAt time.Time) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ScanSnapshot(service, instance, takenAt, f)
}

// splitArchiveName recovers (service, instance) from an archive file
// name, mirroring how DirWriter.Write names were produced.
func splitArchiveName(name string) (service, instance string) {
	base := strings.TrimSuffix(name, ".txt")
	service, instance, ok := strings.Cut(base, "_")
	if !ok {
		return base, base
	}
	return service, instance
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '-'
		}
	}, s)
}
