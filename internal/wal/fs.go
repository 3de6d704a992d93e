// Package wal is the filesystem seam under sim.Journal, which owns the
// state dir's format (frames, file names, snapshots and recovery). It
// holds only what the journal writes through: FS, a flat namespace of
// files with explicit Sync and SyncDir durability points, and File.
// Production uses DirFS over a real directory with real fsyncs; the
// crash suites use CrashFS, an in-memory FS that loses unsynced data at
// a scheduled crashpoint exactly the way a power cut does.
package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// File is a writable log or snapshot file.
type File interface {
	io.Writer
	// Sync forces written bytes to stable storage (fsync). Data written
	// but not synced may not survive a crash.
	Sync() error
	// Close releases the handle. Close does not imply Sync.
	Close() error
}

// FS is the flat-namespace filesystem the journal runs on. Names never
// contain path separators. Implementations: DirFS (production, real
// fsyncs) and CrashFS (deterministic crash injection).
type FS interface {
	// Create truncates or creates name for writing. The new directory
	// entry is durable only after SyncDir.
	Create(name string) (File, error)
	// ReadFile returns the full current content of name.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newname with oldname's file. The
	// renamed entry is durable only after SyncDir.
	Rename(oldname, newname string) error
	// Remove deletes name. Durable only after SyncDir.
	Remove(name string) error
	// List returns all file names, sorted.
	List() ([]string, error)
	// SyncDir makes pending directory operations (create, rename,
	// remove) durable.
	SyncDir() error
}

// checkName rejects names that would escape the flat namespace.
func checkName(name string) error {
	if name == "" || name == "." || name == ".." || strings.ContainsAny(name, `/\`) {
		return fmt.Errorf("wal: bad file name %q", name)
	}
	return nil
}

// DirFS is the production FS: a real directory with real fsyncs.
type DirFS struct {
	dir string
}

// NewDirFS creates dir if needed and returns an FS rooted there.
func NewDirFS(dir string) (*DirFS, error) {
	if dir == "" {
		return nil, fmt.Errorf("wal: empty state dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create state dir: %w", err)
	}
	return &DirFS{dir: dir}, nil
}

func (fs *DirFS) path(name string) (string, error) {
	if err := checkName(name); err != nil {
		return "", err
	}
	return filepath.Join(fs.dir, name), nil
}

// Create implements FS.
func (fs *DirFS) Create(name string) (File, error) {
	p, err := fs.path(name)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(p, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create %s: %w", name, err)
	}
	return f, nil
}

// ReadFile implements FS.
func (fs *DirFS) ReadFile(name string) ([]byte, error) {
	p, err := fs.path(name)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(p)
}

// Rename implements FS.
func (fs *DirFS) Rename(oldname, newname string) error {
	po, err := fs.path(oldname)
	if err != nil {
		return err
	}
	pn, err := fs.path(newname)
	if err != nil {
		return err
	}
	return os.Rename(po, pn)
}

// Remove implements FS.
func (fs *DirFS) Remove(name string) error {
	p, err := fs.path(name)
	if err != nil {
		return err
	}
	return os.Remove(p)
}

// List implements FS.
func (fs *DirFS) List() ([]string, error) {
	ents, err := os.ReadDir(fs.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list state dir: %w", err)
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// SyncDir implements FS: fsync on the directory itself, which is what
// makes renames and creates durable on POSIX filesystems.
func (fs *DirFS) SyncDir() error {
	d, err := os.Open(fs.dir)
	if err != nil {
		return fmt.Errorf("wal: open state dir for sync: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: sync state dir: %w", err)
	}
	return nil
}
