// Package output writes durable run artifacts: every checkpoint, spool
// record and result file goes through WriteFileAtomic or WriteFile.
package output

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes a file via a temporary sibling, fsyncs it, and
// renames it into place, so a crash mid-write can never leave a
// truncated or corrupt file at path — the previous contents survive
// until the rename commits the new ones. The write callback receives
// the temporary file's writer; any error (from the callback, the sync,
// or the rename) aborts and removes the temporary. The file is private
// to its owner (mode 0600).
//
// Checkpoint writers (cmd/vpic -checkpoint, the vpicd spool) share this
// helper so every durable artifact has the same all-or-nothing
// guarantee.
func WriteFileAtomic(path string, write func(w io.Writer) error) error {
	return writeAtomic(path, 0, write)
}

// WriteFile is os.WriteFile with WriteFileAtomic's guarantee, for
// reports other users and tools read: the file gets mode perm
// (umask not applied).
func WriteFile(path string, data []byte, perm os.FileMode) error {
	return writeAtomic(path, perm, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// writeAtomic is WriteFileAtomic; a nonzero perm replaces the temporary
// file's mode before it is renamed into place.
func writeAtomic(path string, perm os.FileMode, write func(w io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("output: atomic write %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if perm != 0 {
		if err = tmp.Chmod(perm); err != nil {
			return fmt.Errorf("output: atomic write %s: %w", path, err)
		}
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("output: atomic write %s: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("output: atomic write %s: %w", path, err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("output: atomic write %s: %w", path, err)
	}
	return nil
}
