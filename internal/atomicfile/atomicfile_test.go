package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWritePublishesCompleteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	for _, body := range []string{"first", "second, longer"} {
		if err := Write(path, func(w io.Writer) error {
			_, err := io.WriteString(w, body)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != body {
			t.Fatalf("read %q, want %q", got, body)
		}
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o644 {
		t.Errorf("mode %v, want 0644", st.Mode().Perm())
	}
	assertOnly(t, dir, "out.json")
}

func TestWriteFailureLeavesTargetUntouched(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := Write(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "old" {
		t.Fatalf("failed write replaced the file: %q", got)
	}
	assertOnly(t, dir, "out.json")

	// A missing target directory fails before anything is written.
	if err := Write(filepath.Join(dir, "missing", "out.json"), func(io.Writer) error { return nil }); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

// assertOnly fails unless dir holds exactly the named file: no temporary
// file may outlive Write.
func assertOnly(t *testing.T, dir, name string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != name {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("dir holds %v, want only %s", names, name)
	}
}
