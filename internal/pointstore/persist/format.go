// The on-disk snapshot format: a fixed header, a section table, and the raw
// little-endian base columns, each section independently CRC'd. The columns
// are exactly pointstore.BaseColumns — already flat arrays in memory — so a
// snapshot is written in one streaming pass and can be mmap'd back and
// served zero-copy on little-endian platforms. No derived column is stored:
// the block aggregates are rebuilt from the weights at open.
//
// Layout (version 2, all integers and floats little-endian):
//
//	offset  size  field
//	0       4     magic "DBPS"
//	4       4     u32 format version (2)
//	8       8     u64 generation
//	16      8     u64 nextID
//	24      8     u64 dropped
//	32      8     u64 rows
//	40      4     u32 flags (bit 0: has weights)
//	44      4     u32 section count
//	48      8     f64 domain origin X
//	56      8     f64 domain origin Y
//	64      8     f64 domain size
//	72      1     u8 curve (0 hilbert, 1 morton), then 7 zero bytes
//	80      24×n  section table: u32 id, u32 crc32c, u64 offset, u64 length
//	80+24n  4     u32 crc32c of bytes [0, 80+24n)
//	+4      4     zero padding (8-byte alignment for the sections)
//	...           sections, each 8-byte aligned
//
// Version 1 had the same layout plus three derived sections of a weighted
// store (5: prefix sums, 6: block minima, 7: block maxima). A version-1 file
// still opens: those sections are CRC-checked like any other, then ignored.
//
// Changing any of this requires bumping snapVersion — the golden format
// tests pin the exact bytes of a small snapshot.
package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"distbound/internal/geom"
	"distbound/internal/pointstore"
	"distbound/internal/sfc"
)

const (
	snapMagic   = "DBPS"
	walMagic    = "DBWL"
	snapVersion = 2

	flagHasWeights = 1 << 0

	headerFixedSize  = 80
	sectionEntrySize = 24

	// SnapshotName is the current snapshot's file name within a store
	// directory; snapshots are written to SnapshotName+".tmp" and renamed.
	SnapshotName = "base.snap"
	snapTmpName  = SnapshotName + ".tmp"
)

// Section identifiers. The writer emits them in this order; readers index
// by id, not position.
const (
	secKeys    = 1
	secIDs     = 2
	secPts     = 3
	secWeights = 4
)

// castagnoli is the CRC-32C polynomial table shared by every checksum in the
// format (header, sections, WAL records).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WALName returns the log file extending generation gen — the file-naming
// contract for tooling that inspects a store directory. Naming the log
// after its generation is what makes checkpointing crash-atomic: recovery
// replays only the log matching the snapshot it loaded, so a crash between
// "rename new snapshot" and "retire old log" can never double-apply.
func WALName(gen uint64) string {
	return fmt.Sprintf("wal-%016x.log", gen)
}

// snapMeta is the decoded snapshot header.
type snapMeta struct {
	gen     uint64
	nextID  uint64
	dropped uint64
	rows    uint64
	hasW    bool
	domain  sfc.Domain
	curve   sfc.Curve
}

// curveID maps a linearization curve to its on-disk identifier.
func curveID(c sfc.Curve) (byte, error) {
	switch c.(type) {
	case sfc.Hilbert:
		return 0, nil
	case sfc.Morton:
		return 1, nil
	default:
		return 0, fmt.Errorf("persist: unknown curve %q", c.Name())
	}
}

// curveByID is the inverse of curveID.
func curveByID(b byte) (sfc.Curve, error) {
	switch b {
	case 0:
		return sfc.Hilbert{}, nil
	case 1:
		return sfc.Morton{}, nil
	default:
		return nil, fmt.Errorf("persist: unknown curve id %d", b)
	}
}

// section is one column's placement in the file.
type section struct {
	id   uint32
	crc  uint32
	off  uint64
	size uint64
}

// emitChunks streams n elements of elemSize bytes through emit in bounded
// chunks, encoding with enc(buf, i) which must write elemSize bytes for
// element i. One encoder serves both the CRC pass and the write pass, so
// the bytes checksummed are the bytes written by construction.
func emitChunks(n, elemSize int, enc func(buf []byte, i int), emit func([]byte) error) error {
	const chunkBytes = 1 << 16
	perChunk := chunkBytes / elemSize
	buf := make([]byte, perChunk*elemSize)
	for base := 0; base < n; base += perChunk {
		cnt := min(perChunk, n-base)
		for k := 0; k < cnt; k++ {
			enc(buf[k*elemSize:(k+1)*elemSize], base+k)
		}
		if err := emit(buf[:cnt*elemSize]); err != nil {
			return err
		}
	}
	return nil
}

func emitU64s(vals []uint64, emit func([]byte) error) error {
	return emitChunks(len(vals), 8, func(b []byte, i int) {
		binary.LittleEndian.PutUint64(b, vals[i])
	}, emit)
}

func emitF64s(vals []float64, emit func([]byte) error) error {
	return emitChunks(len(vals), 8, func(b []byte, i int) {
		binary.LittleEndian.PutUint64(b, math.Float64bits(vals[i]))
	}, emit)
}

func emitPts(pts []geom.Point, emit func([]byte) error) error {
	return emitChunks(len(pts), 16, func(b []byte, i int) {
		binary.LittleEndian.PutUint64(b, math.Float64bits(pts[i].X))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(pts[i].Y))
	}, emit)
}

// snapSections lists the sections a snapshot of cols carries, in file order,
// with sizes and emitters but offsets and CRCs still unset.
func snapSections(cols pointstore.BaseColumns) ([]section, []func(func([]byte) error) error) {
	secs := []section{
		{id: secKeys, size: 8 * uint64(len(cols.Keys))},
		{id: secIDs, size: 8 * uint64(len(cols.IDs))},
		{id: secPts, size: 16 * uint64(len(cols.Pts))},
	}
	emitters := []func(func([]byte) error) error{
		func(e func([]byte) error) error { return emitU64s(cols.Keys, e) },
		func(e func([]byte) error) error { return emitU64s(cols.IDs, e) },
		func(e func([]byte) error) error { return emitPts(cols.Pts, e) },
	}
	if cols.Weights != nil {
		secs = append(secs, section{id: secWeights, size: 8 * uint64(len(cols.Weights))})
		emitters = append(emitters, func(e func([]byte) error) error { return emitF64s(cols.Weights, e) })
	}
	return secs, emitters
}

// writeSnapshot streams one snapshot of cols to f, returning the byte size.
// The caller owns fsync and rename — this writes content only.
func writeSnapshot(f File, meta snapMeta, cols pointstore.BaseColumns) (int64, error) {
	secs, emitters := snapSections(cols)

	// Place sections after the header block and checksum them: the CRC pass
	// runs the same emitters as the write pass below.
	tableEnd := uint64(headerFixedSize + sectionEntrySize*len(secs))
	off := tableEnd + 8 // header CRC + alignment padding
	for i := range secs {
		secs[i].off = off
		off += secs[i].size
		crc := crc32.New(castagnoli)
		if err := emitters[i](func(b []byte) error { _, err := crc.Write(b); return err }); err != nil {
			return 0, err
		}
		secs[i].crc = crc.Sum32()
	}

	hdr := make([]byte, tableEnd+8)
	copy(hdr, snapMagic)
	binary.LittleEndian.PutUint32(hdr[4:], snapVersion)
	binary.LittleEndian.PutUint64(hdr[8:], meta.gen)
	binary.LittleEndian.PutUint64(hdr[16:], meta.nextID)
	binary.LittleEndian.PutUint64(hdr[24:], meta.dropped)
	binary.LittleEndian.PutUint64(hdr[32:], meta.rows)
	var flags uint32
	if meta.hasW {
		flags |= flagHasWeights
	}
	binary.LittleEndian.PutUint32(hdr[40:], flags)
	binary.LittleEndian.PutUint32(hdr[44:], uint32(len(secs)))
	binary.LittleEndian.PutUint64(hdr[48:], math.Float64bits(meta.domain.Origin.X))
	binary.LittleEndian.PutUint64(hdr[56:], math.Float64bits(meta.domain.Origin.Y))
	binary.LittleEndian.PutUint64(hdr[64:], math.Float64bits(meta.domain.Size))
	cid, err := curveID(meta.curve)
	if err != nil {
		return 0, err
	}
	hdr[72] = cid
	for i, s := range secs {
		e := hdr[headerFixedSize+i*sectionEntrySize:]
		binary.LittleEndian.PutUint32(e, s.id)
		binary.LittleEndian.PutUint32(e[4:], s.crc)
		binary.LittleEndian.PutUint64(e[8:], s.off)
		binary.LittleEndian.PutUint64(e[16:], s.size)
	}
	binary.LittleEndian.PutUint32(hdr[tableEnd:], crc32.Checksum(hdr[:tableEnd], castagnoli))
	// hdr[tableEnd+4 : tableEnd+8] stays zero: alignment padding.

	if _, err := f.Write(hdr); err != nil {
		return 0, err
	}
	for i := range secs {
		if err := emitters[i](func(b []byte) error { _, err := f.Write(b); return err }); err != nil {
			return 0, err
		}
	}
	return int64(off), nil
}

// parseSnapshot validates data as a snapshot file — magic, version, header
// CRC, section-table bounds, and every section's CRC — and returns the
// decoded header plus the validated sections indexed by id. It never
// modifies data, so the same validation serves full loads and mmaps.
func parseSnapshot(data []byte) (snapMeta, map[uint32]section, error) {
	var meta snapMeta
	if len(data) < headerFixedSize+8 {
		return meta, nil, fmt.Errorf("persist: snapshot truncated at %d bytes", len(data))
	}
	if string(data[:4]) != snapMagic {
		return meta, nil, fmt.Errorf("persist: bad snapshot magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v < 1 || v > snapVersion {
		return meta, nil, fmt.Errorf("persist: snapshot format version %d, want 1 to %d", v, snapVersion)
	}
	meta.gen = binary.LittleEndian.Uint64(data[8:])
	meta.nextID = binary.LittleEndian.Uint64(data[16:])
	meta.dropped = binary.LittleEndian.Uint64(data[24:])
	meta.rows = binary.LittleEndian.Uint64(data[32:])
	flags := binary.LittleEndian.Uint32(data[40:])
	meta.hasW = flags&flagHasWeights != 0
	nsec := binary.LittleEndian.Uint32(data[44:])
	meta.domain.Origin.X = math.Float64frombits(binary.LittleEndian.Uint64(data[48:]))
	meta.domain.Origin.Y = math.Float64frombits(binary.LittleEndian.Uint64(data[56:]))
	meta.domain.Size = math.Float64frombits(binary.LittleEndian.Uint64(data[64:]))
	var err error
	if meta.curve, err = curveByID(data[72]); err != nil {
		return meta, nil, err
	}

	if nsec > 64 {
		return meta, nil, fmt.Errorf("persist: implausible section count %d", nsec)
	}
	tableEnd := uint64(headerFixedSize) + uint64(sectionEntrySize)*uint64(nsec)
	if uint64(len(data)) < tableEnd+8 {
		return meta, nil, fmt.Errorf("persist: snapshot truncated inside the section table")
	}
	want := binary.LittleEndian.Uint32(data[tableEnd:])
	if got := crc32.Checksum(data[:tableEnd], castagnoli); got != want {
		return meta, nil, fmt.Errorf("persist: snapshot header checksum mismatch: %08x != %08x", got, want)
	}

	secs := make(map[uint32]section, nsec)
	for i := uint32(0); i < nsec; i++ {
		e := data[headerFixedSize+int(i)*sectionEntrySize:]
		s := section{
			id:   binary.LittleEndian.Uint32(e),
			crc:  binary.LittleEndian.Uint32(e[4:]),
			off:  binary.LittleEndian.Uint64(e[8:]),
			size: binary.LittleEndian.Uint64(e[16:]),
		}
		if s.off < tableEnd+8 || s.size > uint64(len(data)) || s.off > uint64(len(data))-s.size {
			return meta, nil, fmt.Errorf("persist: section %d spans [%d, %d) outside the %d-byte file",
				s.id, s.off, s.off+s.size, len(data))
		}
		if s.off%8 != 0 {
			return meta, nil, fmt.Errorf("persist: section %d misaligned at offset %d", s.id, s.off)
		}
		if got := crc32.Checksum(data[s.off:s.off+s.size], castagnoli); got != s.crc {
			return meta, nil, fmt.Errorf("persist: section %d checksum mismatch: %08x != %08x", s.id, got, s.crc)
		}
		if _, dup := secs[s.id]; dup {
			return meta, nil, fmt.Errorf("persist: duplicate section %d", s.id)
		}
		secs[s.id] = s
	}

	// Shape checks: every required section present with the advertised rows.
	if meta.rows > math.MaxInt32 {
		return meta, nil, fmt.Errorf("persist: snapshot advertises %d rows; the store caps columns at 2^31", meta.rows)
	}
	// Every row and every dropped point consumed an ID of its own.
	if meta.dropped > meta.nextID || meta.rows > meta.nextID-meta.dropped {
		return meta, nil, fmt.Errorf("persist: snapshot advertises %d rows and %d dropped points under next ID %d",
			meta.rows, meta.dropped, meta.nextID)
	}
	need := func(id uint32, size uint64) error {
		s, ok := secs[id]
		if !ok {
			return fmt.Errorf("persist: snapshot missing section %d", id)
		}
		if s.size != size {
			return fmt.Errorf("persist: section %d holds %d bytes, want %d", id, s.size, size)
		}
		return nil
	}
	checks := []error{
		need(secKeys, 8*meta.rows),
		need(secIDs, 8*meta.rows),
		need(secPts, 16*meta.rows),
	}
	if meta.hasW {
		checks = append(checks, need(secWeights, 8*meta.rows))
	}
	for _, err := range checks {
		if err != nil {
			return meta, nil, err
		}
	}
	return meta, secs, nil
}

// decodeColumns copies the sections out of data into fresh heap columns —
// the portable full-load path (the mmap path aliases instead; see alias.go).
func decodeColumns(data []byte, meta snapMeta, secs map[uint32]section) pointstore.BaseColumns {
	u64s := func(id uint32) []uint64 {
		s := secs[id]
		out := make([]uint64, s.size/8)
		for i := range out {
			out[i] = binary.LittleEndian.Uint64(data[s.off+8*uint64(i):])
		}
		return out
	}
	cols := pointstore.BaseColumns{Keys: u64s(secKeys), IDs: u64s(secIDs)}
	pts := make([]geom.Point, meta.rows)
	off := secs[secPts].off
	for i := range pts {
		pts[i].X = math.Float64frombits(binary.LittleEndian.Uint64(data[off+16*uint64(i):]))
		pts[i].Y = math.Float64frombits(binary.LittleEndian.Uint64(data[off+16*uint64(i)+8:]))
	}
	cols.Pts = pts
	if meta.hasW {
		s := secs[secWeights]
		cols.Weights = make([]float64, s.size/8)
		for i := range cols.Weights {
			cols.Weights[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[s.off+8*uint64(i):]))
		}
	}
	return cols
}
