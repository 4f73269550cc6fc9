// Engine-level durability: Dataset.Persist binds a registered dataset to an
// on-disk directory (checksummed snapshot + write-ahead log), and
// Engine.OpenDataset re-registers a persisted dataset after a restart,
// replaying the logged tail on top of the snapshot's checksummed base.
package distbound

import (
	"fmt"

	"distbound/internal/pointstore/persist"
)

// PersistConfig configures a dataset's durability. Every mutation of a
// durable dataset is synced to its write-ahead log before it is
// acknowledged; the zero value persists through the operating system.
type PersistConfig struct {
	// fs overrides the backing filesystem; nil selects the operating
	// system. Unexported: only tests inject the fault-injecting
	// implementation here, directly or through WithFS.
	fs persist.FS
}

// WithFS returns cfg backed by fs instead of the operating system: the seam
// this module's other packages' tests inject filesystem faults through
// (persist is internal, so no caller outside the module can name one).
//
//distbound:api test seam: the fault-injection tests run durable datasets on errorfs
func (c PersistConfig) WithFS(fs persist.FS) PersistConfig {
	c.fs = fs
	return c
}

// FS returns the filesystem cfg persists through: the one WithFS injected,
// or the operating system's.
func (c PersistConfig) FS() persist.FS {
	if c.fs == nil {
		return persist.OSFS
	}
	return c.fs
}

func (c PersistConfig) options() persist.Options {
	return persist.Options{FS: c.fs}
}

// Persist makes the dataset durable under dir: an immediate checkpoint
// writes the compacted base as a checksummed snapshot, and every later
// Append/Delete is write-ahead logged, so OpenDataset after a crash or
// restart recovers exactly the acknowledged state. Each subsequent
// compaction — manual or threshold-triggered — checkpoints: the merged base
// replaces the snapshot atomically and the log is retired.
//
// Mutations racing the Persist call itself may miss the log and become
// durable only at the next checkpoint; quiesce writers across the call for
// a strict cutover. Persisting an already durable dataset is an error.
func (d *Dataset) Persist(dir string, cfg PersistConfig) error {
	if d.dur.Load() != nil {
		return fmt.Errorf("distbound: dataset %q is already durable", d.name)
	}
	dur, err := persist.Create(dir, d.src, cfg.options())
	if err != nil {
		return fmt.Errorf("distbound: persisting dataset %q: %w", d.name, err)
	}
	if !d.dur.CompareAndSwap(nil, dur) {
		dur.Close() //nolint:errcheck // lost the race; nothing was logged yet
		return fmt.Errorf("distbound: dataset %q is already durable", d.name)
	}
	return nil
}

// OpenDataset recovers the dataset persisted under dir and registers it as
// name: the snapshot is validated (magic, version, every section checksum)
// and decoded into memory, so nothing served afterwards reads the file; the
// write-ahead log's acknowledged tail is replayed on top, reproducing the
// exact pre-shutdown columns and point IDs. The recovered dataset stays
// durable: mutations keep logging to dir, compactions checkpoint.
//
// The persisted dataset must have been linearized over this engine's domain
// and curve — covers computed here would otherwise probe foreign keys — so
// opening a dataset persisted by an engine over a different region set is
// an error. The engine's cover sets are shared and stay warm across a
// reopen; only the dataset's own state over them (span resolution, partials)
// starts cold and refills on the first query at each level.
func (e *Engine) OpenDataset(name, dir string, cfg PersistConfig) (*Dataset, error) {
	if err := e.checkFreeName(name); err != nil {
		return nil, err
	}
	dur, err := persist.Open(dir, cfg.options())
	if err != nil {
		return nil, fmt.Errorf("distbound: opening dataset %q: %w", name, err)
	}
	ds, err := e.register(name, dur.Mutable(), dur)
	if err != nil {
		dur.Close() //nolint:errcheck // refusing the dataset; nothing was logged
		return nil, err
	}
	return ds, nil
}
