// Package persist gives a resident point dataset a durable life on disk: a
// versioned, checksummed columnar snapshot of the SFC-sorted base that Open
// reads, validates and decodes into heap columns served through the
// existing Snapshot accessors, plus a write-ahead log for the append/delete
// tail so a reopened store replays exactly the mutations acknowledged since
// the last checkpoint.
//
// Crash-consistency rests on three disciplines, and on nothing else:
//
//   - A snapshot becomes current only by an atomic rename of a fully
//     written, fsynced temp file; a reader never sees a partial snapshot.
//   - Every WAL record carries its own length prefix and CRC; replay stops
//     at the first record that fails either, so a torn tail costs at most
//     the records that were never acknowledged as durable.
//   - The WAL file is named after the generation it extends; a checkpoint
//     writes the new snapshot and starts a fresh log, and recovery only
//     replays the log whose generation matches the snapshot it loaded —
//     a crash between the two steps can never double-apply a record.
//
// The package talks to the filesystem exclusively through the FS interface
// below so the recovery tests can inject failures, torn writes and crashes
// at every single call site and prove the disciplines sufficient.
package persist

import (
	"io"
	"os"
	"path/filepath"
)

// FS is the filesystem surface the durable store writes through. Production
// code uses the operating system via OSFS; recovery tests substitute a
// fault-injecting in-memory implementation. Implementations must be safe
// for concurrent use — the group-commit timer syncs from its own goroutine.
type FS interface {
	// Create opens name for writing, truncating any existing content.
	// Writes append sequentially from the start of the file.
	Create(name string) (File, error)
	// OpenWrite opens an existing file; writes append at the end of the
	// file, after any Truncate the caller applies first.
	OpenWrite(name string) (File, error)
	// ReadFile returns the full content of name.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes name.
	Remove(name string) error
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// SyncDir flushes dir's metadata — the durability point for entries
	// created or renamed within it.
	SyncDir(dir string) error
}

// File is one writable file of an FS.
type File interface {
	io.Writer
	// Truncate discards everything past size.
	Truncate(size int64) error
	// Sync flushes written data to stable storage — the only call after
	// which the data is guaranteed to survive a crash.
	Sync() error
	Close() error
}

// OSFS is the operating-system filesystem — the production FS.
var OSFS FS = osFS{}

type osFS struct{}

func (osFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
}

func (osFS) OpenWrite(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0o644)
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) SyncDir(dir string) error {
	f, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	// Some filesystems (and platforms) reject fsync on a directory handle;
	// rename durability is then the platform's own guarantee, and failing
	// the checkpoint over it would turn a portability wart into an outage.
	_ = f.Sync()
	return f.Close()
}
