package persist

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"distbound/internal/geom"
	"distbound/internal/pointstore"
)

// snapMetaFor builds the header a checkpoint of m would carry.
func snapMetaFor(m *pointstore.Mutable) snapMeta {
	m.Compact()
	cols := m.Snapshot().BaseColumns()
	return snapMeta{
		gen:     m.Snapshot().Gen(),
		nextID:  m.NextID(),
		dropped: uint64(m.Dropped()),
		rows:    uint64(len(cols.Keys)),
		hasW:    m.HasWeights(),
		domain:  m.Domain(),
		curve:   m.Curve(),
	}
}

// validWAL renders a well-formed two-record log (an append then a delete)
// for seeding the replay fuzzer.
func validWAL(hasW bool) []byte {
	var ws []float64
	pts := []geom.Point{{X: 1, Y: 2}, {X: 3, Y: 4}}
	if hasW {
		ws = []float64{5, 6}
	}
	b := encodeWALHeader(7)
	for _, payload := range [][]byte{encodeAppendRecord(pts, ws), encodeDeleteRecord([]uint64{0, 1})} {
		frame := make([]byte, 8+len(payload))
		binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
		binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
		copy(frame[8:], payload)
		b = append(b, frame...)
	}
	return b
}

// FuzzWALReplay hammers the log decoder with arbitrary bytes: it must never
// panic, must report a valid-prefix offset inside the data, must yield only
// well-shaped records, and must be a fixed point — re-decoding the valid
// prefix reproduces exactly the same run.
func FuzzWALReplay(f *testing.F) {
	for _, hasW := range []bool{false, true} {
		w := validWAL(hasW)
		f.Add(w)
		f.Add(w[:len(w)-3])
		f.Add(w[:walHeaderSize])
		f.Add(w[:walHeaderSize+5])
		for _, i := range []int{0, 5, 17, 26, 40, len(w) - 1} {
			c := append([]byte(nil), w...)
			c[i] ^= 0x10
			f.Add(c)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("DBWL"))
	f.Add([]byte("DBWLxxxxxxxxxxxxxxxxxxxxxxxxxxxx"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, hasW := range []bool{false, true} {
			if _, ok := decodeWALHeader(data); !ok {
				// Recovery starts a fresh log for an invalid header; the
				// decoder's contract begins after a validated header.
				continue
			}
			recs, valid := decodeWAL(data, hasW)
			if valid < walHeaderSize || valid > int64(len(data)) {
				t.Fatalf("valid prefix %d outside [%d, %d]", valid, walHeaderSize, len(data))
			}
			for i, r := range recs {
				switch r.op {
				case walOpAppend:
					if (r.ws != nil) != hasW || (hasW && len(r.ws) != len(r.pts)) || r.ids != nil {
						t.Fatalf("record %d: malformed append shape %+v", i, r)
					}
				case walOpDelete:
					if r.pts != nil || r.ws != nil {
						t.Fatalf("record %d: malformed delete shape %+v", i, r)
					}
				default:
					t.Fatalf("record %d: op %d survived decoding", i, r.op)
				}
			}
			again, validAgain := decodeWAL(data[:valid], hasW)
			if len(again) != len(recs) || validAgain != valid {
				t.Fatalf("re-decode of valid prefix diverged: %d/%d records, %d/%d bytes",
					len(again), len(recs), validAgain, valid)
			}
		}
	})
}

// FuzzSnapshotParse feeds arbitrary bytes to the snapshot parser: it must
// never panic, and any input it accepts must decode into columns whose
// lengths match the parsed row count.
func FuzzSnapshotParse(f *testing.F) {
	for _, weighted := range []bool{false, true} {
		m := newTestMutable(f, 30, weighted)
		var buf memWriteFile
		meta := snapMetaFor(m)
		if _, err := writeSnapshot(&buf, meta, m.Snapshot().BaseColumns()); err != nil {
			f.Fatal(err)
		}
		w := buf.data
		f.Add(w)
		f.Add(w[:len(w)/2])
		for _, i := range []int{0, 9, 45, 83, len(w) - 5} {
			c := append([]byte(nil), w...)
			c[i] ^= 0x04
			f.Add(c)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("DBPS"))
	f.Fuzz(func(t *testing.T, data []byte) {
		meta, secs, err := parseSnapshot(data)
		if err != nil {
			return
		}
		cols := decodeColumns(data, meta, secs)
		if len(cols.Keys) != int(meta.rows) || len(cols.IDs) != int(meta.rows) || len(cols.Pts) != int(meta.rows) {
			t.Fatalf("accepted snapshot decoded %d/%d/%d rows, header says %d",
				len(cols.Keys), len(cols.IDs), len(cols.Pts), meta.rows)
		}
		if (cols.Weights != nil) != meta.hasW {
			t.Fatalf("weight column presence %v contradicts header flag %v", cols.Weights != nil, meta.hasW)
		}
		if meta.hasW && len(cols.Weights) != int(meta.rows) {
			t.Fatalf("weight column has %d entries for %d rows", len(cols.Weights), meta.rows)
		}
	})
}

// memWriteFile satisfies File in memory so fuzz seeding need not touch disk.
type memWriteFile struct{ data []byte }

func (m *memWriteFile) Write(p []byte) (int, error) {
	m.data = append(m.data, p...)
	return len(p), nil
}
func (m *memWriteFile) Truncate(n int64) error { m.data = m.data[:n]; return nil }
func (m *memWriteFile) Sync() error            { return nil }
func (m *memWriteFile) Close() error           { return nil }
