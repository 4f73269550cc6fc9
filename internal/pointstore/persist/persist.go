package persist

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"path/filepath"
	"sync"
	"time"

	"distbound/internal/geom"
	"distbound/internal/pointstore"
)

// Options configures a durable store.
type Options struct {
	// FS is the filesystem to persist through; nil selects the operating
	// system (OSFS). Tests inject a fault-injecting implementation here.
	FS FS
	// GroupCommit batches WAL fsyncs: a mutation returns once written, and
	// the log syncs at most GroupCommit after the first unsynced record. A
	// crash may lose mutations from the last unsynced window. Zero or
	// negative syncs every record before it is acknowledged.
	GroupCommit time.Duration
}

// Stats describes a durable store's on-disk and recovery state.
type Stats struct {
	// Generation is the compaction generation of the snapshot file.
	Generation uint64
	// SnapshotBytes is the snapshot file's size.
	SnapshotBytes int64
	// WALRecords and WALBytes measure the log extending the snapshot.
	WALRecords uint64
	WALBytes   int64
	// RecoveryWall is how long Open took — snapshot load/map, validation,
	// and WAL replay; zero for a store born with Create.
	RecoveryWall time.Duration
	// MMapped reports whether the base columns are currently served from
	// the mapped snapshot file rather than heap copies. It clears at the
	// first checkpoint whose compaction replaces the mapped base with
	// freshly merged heap columns.
	MMapped bool
	// Err is the sticky wedge error: non-nil after a WAL write or sync
	// failure — the in-memory state is ahead of what disk can replay — or
	// after a checkpoint whose directory sync failed post-rename, when
	// which generation a crash would resurface is unknowable. In either
	// case no further mutation will be accepted.
	Err error
	// CheckpointErr is the most recent Checkpoint failure, nil after a
	// success. A checkpoint that fails before its snapshot rename does not
	// wedge the store: the previous snapshot+log pair remains in charge and
	// the checkpoint can be retried. A directory-sync failure after the
	// rename additionally wedges the store (see Err).
	CheckpointErr error
}

var (
	errWALClosed = errors.New("persist: write-ahead log closed")
	errClosed    = errors.New("persist: durable store closed")
)

// Durable binds a pointstore.Mutable to a directory holding its checksummed
// snapshot and write-ahead log. Mutations must flow through Append and
// Delete — never directly through the Mutable — so the log stays complete;
// reads keep going straight to Mutable().Snapshot() and pay nothing.
//
// The write discipline is apply-then-log: a mutation is applied to the
// in-memory store first (validating it), then logged. If logging fails the
// store wedges — the mutation is visible in memory but Err is set and every
// later mutation is refused, because acknowledging anything after a lost
// record would let replay diverge from the acknowledged history.
type Durable struct {
	dir  string
	fs   FS
	opts Options
	m    *pointstore.Mutable
	hasW bool

	mu        sync.Mutex
	wal       *walWriter
	gen       uint64 // generation of the snapshot file + log name on disk
	snapBytes int64
	recovery  time.Duration
	mmapped   bool
	err       error // sticky wedge
	ckptErr   error
	closed    bool
}

// Create makes m durable under dir: an immediate checkpoint writes the
// compacted base as the first snapshot and starts its log. m must not be
// mutated except through the returned Durable.
func Create(dir string, m *pointstore.Mutable, opts Options) (*Durable, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, err
	}
	d := &Durable{dir: dir, fs: fsys, opts: opts, m: m, hasW: m.HasWeights()}
	if err := d.checkpointLocked(); err != nil {
		return nil, err
	}
	return d, nil
}

// Open rebuilds the durable store persisted under dir: it validates and
// loads the snapshot — mapped when the FS is OSFS and the platform supports
// it, read into the heap otherwise — replays the log matching the snapshot's
// generation, truncates any torn log tail, and resumes logging. The
// recovered store is bit-identical to the acknowledged state at the crash:
// same columns, same IDs, same nextID.
func Open(dir string, opts Options) (*Durable, error) {
	start := time.Now()
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS
	}
	snapPath := filepath.Join(dir, SnapshotName)

	var (
		data    []byte
		pin     any
		mmapped bool
	)
	if fsys == OSFS && mmapSupported {
		if b, p, err := mmapFile(snapPath); err == nil {
			data, pin, mmapped = b, p, true
		}
	}
	if data == nil {
		b, err := fsys.ReadFile(snapPath)
		if err != nil {
			return nil, err
		}
		data = b
	}
	meta, secs, err := parseSnapshot(data)
	if err != nil {
		return nil, err
	}
	var cols pointstore.BaseColumns
	if mmapped {
		cols = aliasColumns(data, meta, secs)
	} else {
		cols = decodeColumns(data, meta, secs)
		pin = nil
	}
	m, err := pointstore.NewMutableFromColumns(cols, meta.domain, meta.curve,
		int(meta.dropped), meta.nextID, meta.gen, pin)
	if err != nil {
		return nil, err
	}

	d := &Durable{
		dir: dir, fs: fsys, opts: opts, m: m, hasW: meta.hasW,
		gen: meta.gen, snapBytes: int64(len(data)), mmapped: mmapped,
	}
	if err := d.recoverWAL(meta.gen); err != nil {
		return nil, err
	}
	d.recovery = time.Since(start)
	return d, nil
}

// recoverWAL replays the log for generation gen onto the freshly loaded
// base and attaches the writer to its valid prefix. A missing or torn-header
// log is replaced by a fresh one: the header is made durable before any
// record can be acknowledged, so an invalid header proves no record was.
func (d *Durable) recoverWAL(gen uint64) error {
	path := filepath.Join(d.dir, WALName(gen))
	data, err := d.fs.ReadFile(path)
	if err != nil && !errors.Is(err, iofs.ErrNotExist) {
		return err
	}
	if err == nil {
		if hdrGen, ok := decodeWALHeader(data); ok {
			if hdrGen != gen {
				return fmt.Errorf("persist: log %s carries generation %d", WALName(gen), hdrGen)
			}
			recs, valid := decodeWAL(data, d.hasW)
			for _, r := range recs {
				switch r.op {
				case walOpAppend:
					if _, err := d.m.Append(r.pts, r.ws); err != nil {
						return fmt.Errorf("persist: replaying append: %w", err)
					}
				case walOpDelete:
					d.m.Delete(r.ids...)
				}
			}
			w, err := attachWAL(d.fs, path, valid, uint64(len(recs)), d.opts.GroupCommit)
			if err != nil {
				return err
			}
			d.wal = w
			return nil
		}
	}
	w, err := createWAL(d.fs, path, gen, d.opts.GroupCommit)
	if err != nil {
		return err
	}
	d.wal = w
	return nil
}

// Mutable returns the in-memory store. Read it freely; mutate it only
// through the Durable.
func (d *Durable) Mutable() *pointstore.Mutable { return d.m }

// Append applies and logs an append batch, returning the assigned IDs —
// exactly the IDs a replay of the log will reassign.
func (d *Durable) Append(pts []geom.Point, weights []float64) ([]uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usableLocked(); err != nil {
		return nil, err
	}
	ids, err := d.m.Append(pts, weights)
	if err != nil {
		return nil, err // batch rejected before any state changed: nothing to log
	}
	if len(ids) == 0 {
		return ids, nil
	}
	if err := d.wal.append(encodeAppendRecord(pts, weights)); err != nil {
		d.err = err
		return ids, err
	}
	return ids, nil
}

// Delete applies and logs a delete batch, returning how many points were
// live. A batch that deletes nothing changes no state and is not logged.
//
//distbound:api the delete chain (Sharded.Delete, Dataset.Delete, Durable.Delete) has no endpoint yet
func (d *Durable) Delete(ids ...uint64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usableLocked(); err != nil {
		return 0, err
	}
	n := d.m.Delete(ids...)
	if n == 0 {
		return 0, nil
	}
	if err := d.wal.append(encodeDeleteRecord(ids)); err != nil {
		d.err = err
		return n, err
	}
	return n, nil
}

// Sync forces any group-committed log records to stable storage now.
func (d *Durable) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usableLocked(); err != nil {
		return err
	}
	if err := d.wal.sync(); err != nil {
		d.err = err
		return err
	}
	return nil
}

// Checkpoint compacts the store and makes the result the new on-disk
// snapshot, retiring the log: write temp + fsync, start the next
// generation's log, atomic-rename, fsync the directory, drop the old log.
// A failure before the rename leaves the previous snapshot+log pair in
// charge — the error is recorded in Stats.CheckpointErr and the checkpoint
// retried later; the store does not wedge. A directory-sync failure after
// the rename is the one exception: which generation a crash would resurface
// is unknowable, so the store wedges (Stats.Err) rather than acknowledge
// mutations into a log that recovery might ignore.
func (d *Durable) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usableLocked(); err != nil {
		return err
	}
	err := d.checkpointLocked()
	d.ckptErr = err
	return err
}

func (d *Durable) usableLocked() error {
	if d.closed {
		return errClosed
	}
	return d.err
}

// checkpointLocked runs the checkpoint sequence. Crash-safety argument for
// each window:
//
//   - before Rename: disk still holds the old snapshot + old log; the new
//     log (already created) is stale litter the next checkpoint truncates.
//   - after Rename: disk holds the new snapshot, whose log (named by the
//     new generation) was created and made durable before the rename, and
//     is empty — exactly the records acknowledged since the checkpoint.
//
// In neither window can a record apply twice: recovery replays only the log
// named after the generation it loaded. The same rule is why a SyncDir
// failure after the rename must wedge the store: with the directory update's
// durability unknown, any record acknowledged afterwards would live in a log
// that recovery may ignore.
func (d *Durable) checkpointLocked() error {
	d.m.Compact()
	s := d.m.Snapshot()
	gen := s.Gen()
	if d.wal != nil && gen == d.gen {
		// Nothing mutated since the last checkpoint (a logged mutation would
		// have forced Compact to publish a new generation): disk is current.
		return nil
	}
	// Reaching here means a compaction has replaced the Open-time base with
	// freshly merged heap columns — the mapped snapshot file, if any, no
	// longer backs what is served, however this checkpoint ends.
	d.mmapped = false
	cols := s.BaseColumns()
	meta := snapMeta{
		gen:     gen,
		nextID:  d.m.NextID(),
		dropped: uint64(d.m.Dropped()),
		rows:    uint64(len(cols.Keys)),
		hasW:    d.hasW,
		domain:  d.m.Domain(),
		curve:   d.m.Curve(),
	}

	tmpPath := filepath.Join(d.dir, snapTmpName)
	f, err := d.fs.Create(tmpPath)
	if err != nil {
		return err
	}
	size, err := writeSnapshot(f, meta, cols)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	newWALPath := filepath.Join(d.dir, WALName(gen))
	nw, err := createWAL(d.fs, newWALPath, gen, d.opts.GroupCommit)
	if err != nil {
		return err
	}
	if err := d.fs.Rename(tmpPath, filepath.Join(d.dir, SnapshotName)); err != nil {
		nw.close()
		d.fs.Remove(newWALPath) //nolint:errcheck // best-effort litter removal
		return err
	}
	if err := d.fs.SyncDir(d.dir); err != nil {
		// The rename happened but the directory update's durability is now
		// unknown: a crash could resurface either generation's snapshot.
		// Logging further mutations to either log would risk losing them —
		// recovery replays only the log named after the generation it loads —
		// so the store wedges. Both (snapshot, log) pairs stay on disk,
		// each coherent and neither accepting new records, and recovery from
		// whichever the platform kept loses nothing acknowledged so far.
		nw.close() //nolint:errcheck // the empty log's header is already durable
		d.err = fmt.Errorf("persist: syncing directory after snapshot rename: %w", err)
		return d.err
	}

	oldWAL, oldGen := d.wal, d.gen
	d.wal, d.gen, d.snapBytes = nw, gen, size
	if oldWAL != nil {
		oldWAL.close()                                     //nolint:errcheck // superseded log; nothing to save
		d.fs.Remove(filepath.Join(d.dir, WALName(oldGen))) //nolint:errcheck
	}
	return nil
}

// Stats reports the store's durability state.
func (d *Durable) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := Stats{
		Generation:    d.gen,
		SnapshotBytes: d.snapBytes,
		RecoveryWall:  d.recovery,
		MMapped:       d.mmapped,
		Err:           d.err,
		CheckpointErr: d.ckptErr,
	}
	if d.wal != nil {
		recs, bytes, werr := d.wal.stats()
		st.WALRecords, st.WALBytes = recs, bytes
		if st.Err == nil && werr != nil && !errors.Is(werr, errWALClosed) {
			st.Err = werr // the group-commit timer wedged the writer off-thread
		}
	}
	return st
}

// Close flushes the log and releases the store's files. The in-memory
// Mutable stays readable; mutations are refused.
func (d *Durable) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	if d.wal == nil {
		return nil
	}
	return d.wal.close()
}
