// Package atomicfile replaces a file's content whole or not at all, even
// across a power cut. Without the file and directory fsyncs a crash can
// leave the target empty or missing — the bug class catalogued by Pillai
// et al., "All File Systems Are Not Created Equal" (OSDI'14).
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write replaces path's content with what write produces: it writes a
// temp file in path's directory, named with a leading "." and a random
// suffix so extension-matching scanners skip it, fsyncs and closes it,
// renames it over path, and fsyncs the directory. A failure before the
// rename removes the temp file and leaves path as it was.
func Write(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	err = tmp.Chmod(0o644) // CreateTemp's 0600 would lock out other readers
	if err == nil {
		err = write(tmp)
	}
	if serr := tmp.Sync(); err == nil {
		err = serr
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory, making the entries created or renamed in
// it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() // read-only: closing cannot lose data
	return d.Sync()
}
