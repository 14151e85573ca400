package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestWrite pins both outcomes. A writer that fails leaves the old
// content and no temp file; while it ran, the temp file was hidden and
// did not end in the target's ".txt", so archive scanners skip it. A
// writer that succeeds replaces a longer old content whole.
func TestWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "svc_i1.txt")
	old := strings.Repeat("old content\n", 64)
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	names := func() []string {
		m, _ := filepath.Glob(filepath.Join(dir, "*")) // "*" matches dot files too
		return m
	}
	holds := func(want string) {
		t.Helper()
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("content = %q, %v; want %q", got, err, want)
		}
		if got := names(); !reflect.DeepEqual(got, []string{path}) {
			t.Errorf("directory = %v, want only the target", got)
		}
	}

	boom := errors.New("boom")
	var during []string
	err := Write(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		during = names()
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want %v", err, boom)
	}
	if tmp := filepath.Base(during[0]); len(during) != 2 || !strings.HasPrefix(tmp, ".") || strings.HasSuffix(tmp, ".txt") {
		t.Errorf("directory while writing = %v, want a hidden temp name not ending in .txt beside the target", during)
	}
	holds(old)

	if err := Write(path, func(w io.Writer) error { _, err := io.WriteString(w, "new\n"); return err }); err != nil {
		t.Fatal(err)
	}
	holds("new\n")
}
