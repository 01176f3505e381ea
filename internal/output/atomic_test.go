package output

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")

	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "version-1")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); string(b) != "version-1" {
		t.Fatalf("content = %q, want version-1", b)
	}

	// Replacement commits fully.
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "version-2")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); string(b) != "version-2" {
		t.Fatalf("content = %q, want version-2", b)
	}

	// A failing writer leaves the previous version intact and no temp
	// files behind.
	err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "half-writ")
		return fmt.Errorf("simulated crash")
	})
	if err == nil || err.Error() != "simulated crash" {
		t.Fatalf("err = %v, want simulated crash", err)
	}
	if b, _ := os.ReadFile(path); string(b) != "version-2" {
		t.Fatalf("failed write clobbered file: %q", b)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("temp file leaked: %v", entries)
	}
}

func TestWriteFileAtomicBadDir(t *testing.T) {
	err := WriteFileAtomic(filepath.Join(t.TempDir(), "no", "such", "dir", "f"), func(w io.Writer) error {
		return nil
	})
	if err == nil {
		t.Fatal("expected error for missing directory")
	}
}

// WriteFile sets the requested mode, which WriteFileAtomic's private
// temporary would otherwise keep.
func TestWriteFileMode(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("no POSIX file modes")
	}
	dir := t.TempDir()
	for _, perm := range []os.FileMode{0o644, 0o600} {
		path := filepath.Join(dir, "report.json")
		if err := WriteFile(path, []byte("{}\n"), perm); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Mode().Perm() != perm {
			t.Errorf("mode = %v, want %v", fi.Mode().Perm(), perm)
		}
	}
	if err := WriteFileAtomic(filepath.Join(dir, "ckpt"), func(io.Writer) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if fi, _ := os.Stat(filepath.Join(dir, "ckpt")); fi.Mode().Perm() != 0o600 {
		t.Errorf("WriteFileAtomic mode = %v, want 0600", fi.Mode().Perm())
	}
}
