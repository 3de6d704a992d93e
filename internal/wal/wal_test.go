package wal

import (
	"bytes"
	"errors"
	"os"
	"testing"
)

// TestCrashFSDurabilityModel pins the semantics the journal relies on.
func TestCrashFSDurabilityModel(t *testing.T) {
	fs := NewCrashFS(7)
	f, err := fs.Create("a")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := f.Write([]byte("synced")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := fs.SyncDir(); err != nil {
		t.Fatalf("SyncDir: %v", err)
	}
	// A second file is created but its directory entry is never synced.
	g, err := fs.Create("b")
	if err != nil {
		t.Fatalf("Create b: %v", err)
	}
	if _, err := g.Write([]byte("lost")); err != nil {
		t.Fatalf("Write b: %v", err)
	}
	if err := g.Sync(); err != nil {
		t.Fatalf("Sync b: %v", err)
	}

	fs.SetCrashAt(fs.Ops() + 1)
	if _, err := f.Write([]byte("torn")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("armed write returned %v, want ErrCrashed", err)
	}
	if err := fs.SyncDir(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash op returned %v, want ErrCrashed", err)
	}
	fs.Recover()

	// File a: the synced prefix survives; the torn suffix may partially
	// survive but never beyond what was written.
	b, err := fs.ReadFile("a")
	if err != nil {
		t.Fatalf("ReadFile a after recover: %v", err)
	}
	if !bytes.HasPrefix(b, []byte("synced")) || len(b) > len("syncedtorn") {
		t.Fatalf("file a recovered as %q", b)
	}
	// File b: never linked durably — gone.
	if _, err := fs.ReadFile("b"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("file b after recover: err=%v, want not-exist", err)
	}

	// Determinism: the same seed and crash schedule produce the same
	// disk image.
	run := func() []byte {
		fs := NewCrashFS(7)
		f, _ := fs.Create("a")
		_, _ = f.Write([]byte("synced"))
		_ = f.Sync()
		_ = fs.SyncDir()
		g, _ := fs.Create("b")
		_, _ = g.Write([]byte("lost"))
		_ = g.Sync()
		fs.SetCrashAt(fs.Ops() + 1)
		_, _ = f.Write([]byte("torn"))
		fs.Recover()
		out, _ := fs.ReadFile("a")
		return out
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("CrashFS recovery is not deterministic for identical schedules")
	}
}

func TestDirFSRejectsPathEscapes(t *testing.T) {
	dfs, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatalf("NewDirFS: %v", err)
	}
	for _, name := range []string{"", ".", "..", "a/b", `a\b`} {
		if _, err := dfs.Create(name); err == nil {
			t.Errorf("Create(%q) succeeded, want error", name)
		}
	}
}
