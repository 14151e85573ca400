package gprofile

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/atomicfile"
)

// ManifestName is the file name a sweep archive's manifest is stored
// under, alongside the <service>_<instance>.txt profile members.
const ManifestName = "manifest.json"

// ManifestVersion is the current manifest format version. Readers reject
// manifests from the future; the version lets the format evolve without
// silently misreading old archives.
const ManifestVersion = 1

// Manifest records what a sweep archive directory contains: when the
// sweep ran, which snapshots it archived, and the format version. With a
// manifest present, replay uses the recorded sweep time instead of a
// caller-supplied timestamp, so trend verdicts over multi-sweep archives
// see the original cadence rather than a flat replay time.
type Manifest struct {
	// FormatVersion is ManifestVersion at write time.
	FormatVersion int `json:"format_version"`
	// SweepAt is the sweep's start timestamp.
	SweepAt time.Time `json:"sweep_at"`
	// Source names the profile origin that fed the sweep, when known.
	Source string `json:"source,omitempty"`
	// Snapshots indexes the archived members in write order.
	Snapshots []ManifestEntry `json:"snapshots"`
}

// ManifestEntry is one archived snapshot in the manifest's index.
type ManifestEntry struct {
	// File is the member file name within the archive directory.
	File string `json:"file"`
	// Service and Instance identify the profiled instance.
	Service  string `json:"service"`
	Instance string `json:"instance"`
}

// WriteManifest finalises the archive: it writes a manifest.json indexing
// every snapshot written through this writer, stamped with the sweep
// time. The write is atomic and durable (atomicfile.Write); call it
// once, after the sweep's last snapshot.
func (w *DirWriter) WriteManifest(at time.Time, source string) error {
	w.mu.Lock()
	entries := make([]ManifestEntry, 0, len(w.entries))
	for name, e := range w.entries {
		entries = append(entries, ManifestEntry{File: name, Service: e.service, Instance: e.instance})
	}
	w.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].File < entries[j].File })
	m := &Manifest{FormatVersion: ManifestVersion, SweepAt: at, Source: source, Snapshots: entries}
	return WriteManifestFile(w.dir, m)
}

// WriteManifestFile atomically and durably writes dir's manifest.json.
func WriteManifestFile(dir string, m *Manifest) error {
	body, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("gprofile: encoding manifest: %w", err)
	}
	err = atomicfile.Write(filepath.Join(dir, ManifestName), func(w io.Writer) error {
		_, err := w.Write(append(body, '\n'))
		return err
	})
	if err != nil {
		return fmt.Errorf("gprofile: writing manifest: %w", err)
	}
	return nil
}

// ReadManifest loads dir's manifest.json. A missing manifest returns
// (nil, nil) — legacy archives predate manifests — while a corrupt or
// future-versioned manifest returns an error.
func ReadManifest(dir string) (*Manifest, error) {
	body, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("gprofile: reading manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("gprofile: decoding manifest in %s: %w", dir, err)
	}
	if m.FormatVersion > ManifestVersion {
		return nil, fmt.Errorf("gprofile: manifest in %s has format version %d, newer than supported %d",
			dir, m.FormatVersion, ManifestVersion)
	}
	return &m, nil
}

// SweepDirs lists dir's sweep subdirectories — the layout a rotating
// multi-sweep archive writes, one subdirectory per sweep, each with its
// own manifest — ordered by recorded sweep time (subdirectory name as the
// tiebreak). Subdirectories with a corrupt manifest, or with profile
// members but no manifest at all (a sweep torn by a crash before
// finalisation), are skipped and reported via fail (optional) — silently
// dropping a recorded sweep would make archived history vanish without a
// diagnostic. An empty result means dir is not a multi-sweep archive.
func SweepDirs(dir string, fail func(name string, err error)) ([]SweepDir, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("gprofile: reading %s: %w", dir, err)
	}
	var out []SweepDir
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		sub := filepath.Join(dir, e.Name())
		m, merr := ReadManifest(sub)
		if merr != nil {
			if fail != nil {
				fail(e.Name(), merr)
			}
			continue
		}
		if m == nil {
			if fail != nil && hasProfileMembers(sub) {
				fail(e.Name(), fmt.Errorf("gprofile: %s holds profile members but no %s (sweep torn before finalisation?); replay it directly to salvage", sub, ManifestName))
			}
			continue // not a sweep archive
		}
		out = append(out, SweepDir{Dir: sub, Manifest: m})
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Manifest.SweepAt.Equal(out[j].Manifest.SweepAt) {
			return out[i].Manifest.SweepAt.Before(out[j].Manifest.SweepAt)
		}
		return out[i].Dir < out[j].Dir
	})
	return out, nil
}

// hasProfileMembers reports whether dir contains archive member files.
func hasProfileMembers(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".txt") {
			return true
		}
	}
	return false
}

// SweepDir is one sweep of a multi-sweep archive.
type SweepDir struct {
	// Dir is the sweep's archive directory.
	Dir string
	// Manifest is the sweep's recorded manifest.
	Manifest *Manifest
}
