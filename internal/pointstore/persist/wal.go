// The write-ahead log: every acknowledged Append/Delete since the last
// checkpoint, length-prefixed and CRC'd per record, fsync-batched under a
// configurable group-commit interval.
//
// Layout (version 1, little-endian):
//
//	offset  size  field
//	0       4     magic "DBWL"
//	4       4     u32 format version (1)
//	8       8     u64 generation this log extends
//	16      4     u32 crc32c of bytes [0, 16)
//	20      4     zero padding
//	24            records
//
// Each record is u32 payload length, u32 crc32c(payload), payload. The
// payload starts with a u8 op:
//
//	op 1 (append): u32 n, then n × (f64 x, f64 y[, f64 weight])
//	op 2 (delete): u32 n, then n × u64 id
//
// Replay accepts the longest valid prefix and stops at the first record that
// is torn, fails its CRC, or decodes to nonsense — by the group-commit
// contract everything past that point was never acknowledged as durable.
package persist

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"sync"
	"time"

	"distbound/internal/geom"
)

const (
	// walVersion is the log format's version, kept apart from snapVersion:
	// the log's bytes did not change when the snapshot's did.
	walVersion    = 1
	walHeaderSize = 24

	walOpAppend = 1
	walOpDelete = 2
)

// encodeWALHeader renders the 24-byte log header for generation gen.
func encodeWALHeader(gen uint64) []byte {
	hdr := make([]byte, walHeaderSize)
	copy(hdr, walMagic)
	binary.LittleEndian.PutUint32(hdr[4:], walVersion)
	binary.LittleEndian.PutUint64(hdr[8:], gen)
	binary.LittleEndian.PutUint32(hdr[16:], crc32.Checksum(hdr[:16], castagnoli))
	return hdr
}

// decodeWALHeader validates data's log header and returns its generation.
// A short, unmagiced or checksum-failing header reports !ok: the crash that
// tore it predates the first record's acknowledgement, so the caller starts
// a fresh log rather than failing recovery.
func decodeWALHeader(data []byte) (gen uint64, ok bool) {
	if len(data) < walHeaderSize || string(data[:4]) != walMagic {
		return 0, false
	}
	if binary.LittleEndian.Uint32(data[4:]) != walVersion {
		return 0, false
	}
	if crc32.Checksum(data[:16], castagnoli) != binary.LittleEndian.Uint32(data[16:]) {
		return 0, false
	}
	return binary.LittleEndian.Uint64(data[8:]), true
}

// walRecord is one decoded log record.
type walRecord struct {
	op  byte
	pts []geom.Point // append
	ws  []float64    // append, weighted stores only
	ids []uint64     // delete
}

// encodeAppendRecord renders an append payload. ws is nil iff the store is
// weightless.
func encodeAppendRecord(pts []geom.Point, ws []float64) []byte {
	stride := 16
	if ws != nil {
		stride = 24
	}
	b := make([]byte, 5+stride*len(pts))
	b[0] = walOpAppend
	binary.LittleEndian.PutUint32(b[1:], uint32(len(pts)))
	off := 5
	for i, p := range pts {
		binary.LittleEndian.PutUint64(b[off:], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(b[off+8:], math.Float64bits(p.Y))
		off += 16
		if ws != nil {
			binary.LittleEndian.PutUint64(b[off:], math.Float64bits(ws[i]))
			off += 8
		}
	}
	return b
}

// encodeDeleteRecord renders a delete payload.
func encodeDeleteRecord(ids []uint64) []byte {
	b := make([]byte, 5+8*len(ids))
	b[0] = walOpDelete
	binary.LittleEndian.PutUint32(b[1:], uint32(len(ids)))
	for i, id := range ids {
		binary.LittleEndian.PutUint64(b[5+8*i:], id)
	}
	return b
}

// decodeRecord parses one CRC-validated payload. The element count must
// account for the payload's exact length, so a hostile length field can
// never allocate beyond the bytes actually present.
func decodeRecord(payload []byte, hasW bool) (walRecord, bool) {
	var r walRecord
	if len(payload) < 5 {
		return r, false
	}
	r.op = payload[0]
	n := binary.LittleEndian.Uint32(payload[1:])
	body := payload[5:]
	switch r.op {
	case walOpAppend:
		stride := uint64(16)
		if hasW {
			stride = 24
		}
		if uint64(len(body)) != stride*uint64(n) {
			return r, false
		}
		r.pts = make([]geom.Point, n)
		if hasW {
			r.ws = make([]float64, n)
		}
		off := 0
		for i := range r.pts {
			r.pts[i].X = math.Float64frombits(binary.LittleEndian.Uint64(body[off:]))
			r.pts[i].Y = math.Float64frombits(binary.LittleEndian.Uint64(body[off+8:]))
			off += 16
			if hasW {
				r.ws[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[off:]))
				off += 8
			}
		}
	case walOpDelete:
		if uint64(len(body)) != 8*uint64(n) {
			return r, false
		}
		r.ids = make([]uint64, n)
		for i := range r.ids {
			r.ids[i] = binary.LittleEndian.Uint64(body[8*i:])
		}
	default:
		return r, false
	}
	return r, true
}

// decodeWAL parses the longest valid record run after data's (already
// validated) header, returning the records and the byte offset the file
// should be truncated to. It never fails: corruption just ends the run.
func decodeWAL(data []byte, hasW bool) (recs []walRecord, validBytes int64) {
	off := int64(walHeaderSize)
	for {
		rest := data[off:]
		if len(rest) < 8 {
			return recs, off
		}
		plen := binary.LittleEndian.Uint32(rest)
		if uint64(len(rest))-8 < uint64(plen) {
			return recs, off
		}
		payload := rest[8 : 8+plen]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[4:]) {
			return recs, off
		}
		r, ok := decodeRecord(payload, hasW)
		if !ok {
			return recs, off
		}
		recs = append(recs, r)
		off += int64(8 + plen)
	}
}

// walWriter appends framed records to an open log file, syncing either per
// record (interval ≤ 0) or at most interval after the first unsynced record
// (group commit). The first write or sync error wedges the writer: nothing
// after a lost record may be acknowledged, or replay would reorder history.
// Safe for concurrent use — the group-commit timer fires on its own
// goroutine.
type walWriter struct {
	interval time.Duration

	mu      sync.Mutex
	f       File
	timer   *time.Timer
	dirty   bool
	err     error
	records uint64
	bytes   int64
}

// createWAL starts the empty log for generation gen at path, truncating any
// stale log a crashed earlier life left under the same name, and makes the
// header durable before any record can be acknowledged against it.
func createWAL(fs FS, path string, gen uint64, interval time.Duration) (*walWriter, error) {
	f, err := fs.Create(path)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(encodeWALHeader(gen)); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return &walWriter{interval: interval, f: f, bytes: walHeaderSize}, nil
}

// attachWAL resumes the log at path after recovery: the file is truncated to
// validBytes — discarding any torn tail so fresh records never append after
// garbage — and further records extend it.
func attachWAL(fs FS, path string, validBytes int64, records uint64, interval time.Duration) (*walWriter, error) {
	f, err := fs.OpenWrite(path)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(validBytes); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return &walWriter{interval: interval, f: f, bytes: validBytes, records: records}, nil
}

// append frames payload, writes it, and applies the sync policy.
func (w *walWriter) append(payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	copy(frame[8:], payload)
	if _, err := w.f.Write(frame); err != nil {
		w.err = err
		return err
	}
	w.bytes += int64(len(frame))
	w.records++
	if w.interval <= 0 {
		return w.syncLocked()
	}
	w.dirty = true
	if w.timer == nil {
		w.timer = time.AfterFunc(w.interval, w.timerSync)
	}
	return nil
}

// timerSync is the group-commit deadline: flush whatever accumulated.
func (w *walWriter) timerSync() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.timer = nil
	if w.err == nil && w.dirty {
		w.syncLocked() //nolint:errcheck // sticky in w.err; next append reports it
	}
}

func (w *walWriter) syncLocked() error {
	if err := w.f.Sync(); err != nil {
		w.err = err
		return err
	}
	w.dirty = false
	return nil
}

// sync forces any group-committed records to stable storage now.
func (w *walWriter) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if !w.dirty {
		return nil
	}
	return w.syncLocked()
}

// stats returns the record count and byte length of the log.
func (w *walWriter) stats() (records uint64, bytes int64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records, w.bytes, w.err
}

// close flushes pending records and releases the file. The writer is
// unusable afterwards.
func (w *walWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.timer != nil {
		w.timer.Stop()
		w.timer = nil
	}
	var first error
	if w.err == nil && w.dirty {
		first = w.syncLocked()
	}
	if err := w.f.Close(); err != nil && first == nil {
		first = err
	}
	if w.err == nil {
		w.err = errWALClosed
	}
	return first
}
