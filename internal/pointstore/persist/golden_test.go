package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distbound/internal/geom"
	"distbound/internal/pointstore"
	"distbound/internal/sfc"
)

// updateGolden regenerates the pinned byte images. Run
//
//	go test ./internal/pointstore/persist -run TestGolden -update-golden
//
// ONLY alongside a snapVersion or walVersion bump: these files are the
// compatibility contract, and an unintended diff here means existing stores
// on disk would stop opening. Images of retired versions are never rewritten:
// they pin what the current reader must still open.
var updateGolden = flag.Bool("update-golden", false, "rewrite golden format images")

// goldenStore is a fixed four-point weighted relation whose snapshot bytes
// must never change within a format version.
func goldenStore(t testing.TB) *pointstore.Mutable {
	t.Helper()
	pts := []geom.Point{
		{X: 12.5, Y: 800},
		{X: 512, Y: 512},
		{X: 1000.25, Y: 3},
		{X: 0, Y: 0},
	}
	ws := []float64{1.5, -2, 0, 1024}
	m, err := pointstore.NewMutable(pts, ws, tdom, sfc.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(hex.Dump(got)), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden image missing (run with -update-golden after a DELIBERATE format change): %v", err)
	}
	if !bytes.Equal([]byte(hex.Dump(got)), want) {
		t.Fatalf("%s: on-disk bytes diverged from the pinned image.\n"+
			"If this is a deliberate format change, bump the format's version and regenerate with -update-golden.\ngot:\n%s",
			name, hex.Dump(got))
	}
}

// TestGoldenSnapshotBytes pins the exact snapshot image — header fields at
// their documented offsets, the section table, and the full file — so any
// layout drift within format version 2 fails loudly.
func TestGoldenSnapshotBytes(t *testing.T) {
	m := goldenStore(t)
	var buf memWriteFile
	meta := snapMetaFor(m)
	if _, err := writeSnapshot(&buf, meta, m.Snapshot().BaseColumns()); err != nil {
		t.Fatal(err)
	}
	b := buf.data

	u32 := func(off int) uint32 { return binary.LittleEndian.Uint32(b[off:]) }
	u64 := func(off int) uint64 { return binary.LittleEndian.Uint64(b[off:]) }
	f64 := func(off int) float64 { return math.Float64frombits(u64(off)) }
	if string(b[0:4]) != "DBPS" {
		t.Fatalf("magic %q", b[0:4])
	}
	if u32(4) != 2 {
		t.Fatalf("version %d at offset 4, want 2", u32(4))
	}
	if u64(8) != meta.gen {
		t.Fatalf("generation %d at offset 8, want %d", u64(8), meta.gen)
	}
	if u64(16) != 4 {
		t.Fatalf("nextID %d at offset 16, want 4", u64(16))
	}
	if u64(24) != 0 {
		t.Fatalf("dropped %d at offset 24, want 0", u64(24))
	}
	if u64(32) != 4 {
		t.Fatalf("rows %d at offset 32, want 4", u64(32))
	}
	if u32(40) != flagHasWeights {
		t.Fatalf("flags %#x at offset 40, want %#x", u32(40), flagHasWeights)
	}
	if u32(44) != 4 {
		t.Fatalf("section count %d at offset 44, want 4", u32(44))
	}
	if f64(48) != 0 || f64(56) != 0 || f64(64) != 1024 {
		t.Fatalf("domain (%g, %g, %g) at offset 48, want (0, 0, 1024)", f64(48), f64(56), f64(64))
	}
	if b[72] != 0 {
		t.Fatalf("curve id %d at offset 72, want 0 (hilbert)", b[72])
	}

	// Section table: ids 1..4 in order, 8-aligned offsets, documented sizes
	// for 4 rows.
	wantSize := map[uint32]uint64{1: 32, 2: 32, 3: 64, 4: 32}
	for i := 0; i < 4; i++ {
		e := headerFixedSize + i*sectionEntrySize
		id, off, size := u32(e), u64(e+8), u64(e+16)
		if id != uint32(i+1) {
			t.Fatalf("table entry %d: section id %d, want %d", i, id, i+1)
		}
		if off%8 != 0 || off+size > uint64(len(b)) {
			t.Fatalf("section %d: bad extent [%d, +%d) in %d bytes", id, off, size, len(b))
		}
		if size != wantSize[id] {
			t.Fatalf("section %d: size %d, want %d", id, size, wantSize[id])
		}
	}
	checkGolden(t, "golden_v2.snap.hexdump", b)

	// The image must round-trip, proving the pin is of a valid snapshot.
	meta2, secs, err := parseSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	if meta2 != meta {
		t.Fatalf("round-trip header %+v, want %+v", meta2, meta)
	}
	if len(secs) != 4 {
		t.Fatalf("round-trip found %d sections", len(secs))
	}
}

// TestGoldenV1SnapshotOpens opens the pinned version-1 image — the golden
// store written with its three derived sections: it must open to the golden
// store's columns and answers.
func TestGoldenV1SnapshotOpens(t *testing.T) {
	dump, err := os.ReadFile(filepath.Join("testdata", "golden_v1.snap.hexdump"))
	if err != nil {
		t.Fatal(err)
	}
	var img []byte
	for _, line := range strings.Split(strings.TrimSuffix(string(dump), "\n"), "\n") {
		// "00000000  44 42 50 53 ...  |DBPS...|": an offset, the bytes in
		// hex, then the ASCII column.
		hexPart, _, _ := strings.Cut(line, "|")
		for _, f := range strings.Fields(hexPart)[1:] {
			b, err := hex.DecodeString(f)
			if err != nil {
				t.Fatal(err)
			}
			img = append(img, b...)
		}
	}
	if v := binary.LittleEndian.Uint32(img[4:]); v != 1 {
		t.Fatalf("pinned image is version %d, want 1", v)
	}
	want := goldenStore(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, SnapshotName), img, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	got := d.Mutable()
	if got.NextID() != 4 || got.Len() != 4 {
		t.Fatalf("nextID %d, %d rows", got.NextID(), got.Len())
	}
	gs, ws := got.Snapshot(), want.Snapshot()
	g, w := gs.BaseColumns(), ws.BaseColumns()
	if !u64Equal(g.Keys, w.Keys) || !u64Equal(g.IDs, w.IDs) || !ptsEqual(g.Pts, w.Pts) || !f64Equal(g.Weights, w.Weights) {
		t.Fatal("columns differ from the golden store")
	}
	if gs.SumSpan(0, 4) != 1023.5 || gs.MinSpan(0, 4) != -2 || gs.MaxSpan(0, 4) != 1024 {
		t.Fatalf("sum/min/max %v/%v/%v", gs.SumSpan(0, 4), gs.MinSpan(0, 4), gs.MaxSpan(0, 4))
	}
}

// TestGoldenWALBytes pins the log header and one append + one delete record
// for a weighted store.
func TestGoldenWALBytes(t *testing.T) {
	b := validWAL(true)

	if string(b[0:4]) != "DBWL" {
		t.Fatalf("magic %q", b[0:4])
	}
	if binary.LittleEndian.Uint32(b[4:]) != 1 {
		t.Fatalf("version %d, want 1", binary.LittleEndian.Uint32(b[4:]))
	}
	if binary.LittleEndian.Uint64(b[8:]) != 7 {
		t.Fatalf("generation %d, want 7", binary.LittleEndian.Uint64(b[8:]))
	}
	// First record: append of 2 weighted points = 8-byte frame + op byte +
	// u32 count + 2×24 bytes.
	if got := binary.LittleEndian.Uint32(b[24:]); got != 5+48 {
		t.Fatalf("first record payload length %d, want %d", got, 5+48)
	}
	if b[32] != walOpAppend || binary.LittleEndian.Uint32(b[33:]) != 2 {
		t.Fatalf("first record op %d count %d, want append of 2", b[32], binary.LittleEndian.Uint32(b[33:]))
	}
	checkGolden(t, "golden_v1.wal.hexdump", b)

	recs, valid := decodeWAL(b, true)
	if len(recs) != 2 || valid != int64(len(b)) {
		t.Fatalf("pinned log decodes to %d records, %d/%d bytes", len(recs), valid, len(b))
	}
}

// TestGoldenFileName pins the log naming contract OpenDataset relies on to
// pair a snapshot generation with its log.
func TestGoldenFileName(t *testing.T) {
	if got := WALName(0x1f); got != "wal-000000000000001f.log" {
		t.Fatalf("WALName(0x1f) = %q", got)
	}
	if SnapshotName != "base.snap" {
		t.Fatalf("SnapshotName = %q", SnapshotName)
	}
}
