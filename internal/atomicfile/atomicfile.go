// Package atomicfile publishes files so that a reader never sees a partial
// one: the content is written to a temporary file in the target directory,
// flushed to stable storage, and renamed over the final name. A concurrent
// reader sees either no file (or the previous version) or the complete new
// content.
package atomicfile

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Write creates path with mode 0644 and the bytes write produces. On any
// error the temporary file is removed and path is left untouched.
func Write(path string, write func(io.Writer) error) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("atomicfile: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return fmt.Errorf("atomicfile: write %s: %w", path, err)
	}
	if err = f.Chmod(0o644); err != nil {
		return fmt.Errorf("atomicfile: %w", err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("atomicfile: sync %s: %w", path, err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("atomicfile: close %s: %w", path, err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("atomicfile: %w", err)
	}
	return nil
}
