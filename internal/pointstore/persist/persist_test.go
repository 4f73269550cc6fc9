package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"distbound/internal/geom"
	"distbound/internal/pointstore"
	"distbound/internal/sfc"
)

// tdom is the test domain every persisted fixture linearizes over.
var tdom = sfc.Domain{Origin: geom.Point{}, Size: 1024}

// tpoints generates n deterministic in-domain points with exactly
// representable dyadic weights, so SUM comparisons are bitwise.
// heapFS is the operating-system filesystem under another name: Open maps a
// snapshot only through OSFS itself, so opening through heapFS takes the
// full-load path on every platform.
type heapFS struct{ FS }

// openOptions returns Open's options for the full-load leg (fullLoad) or the
// mapped one.
func openOptions(fullLoad bool) Options {
	if fullLoad {
		return Options{FS: heapFS{OSFS}}
	}
	return Options{}
}

func tpoints(n int) ([]geom.Point, []float64) {
	pts := make([]geom.Point, n)
	ws := make([]float64, n)
	seed := uint64(0x9e3779b97f4a7c15)
	rnd := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>11) / float64(uint64(1)<<53)
	}
	for i := range pts {
		pts[i] = geom.Point{X: float64(int(rnd()*8192)) / 8, Y: float64(int(rnd()*8192)) / 8}
		ws[i] = float64(int(rnd()*512)) / 16
	}
	return pts, ws
}

func newTestMutable(t testing.TB, n int, weighted bool) *pointstore.Mutable {
	t.Helper()
	pts, ws := tpoints(n)
	if !weighted {
		ws = nil
	}
	m, err := pointstore.NewMutable(pts, ws, tdom, sfc.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func u64Equal(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func f64Equal(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func ptsEqual(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].X) != math.Float64bits(b[i].X) ||
			math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) {
			return false
		}
	}
	return true
}

// requireSameState compacts both stores and asserts every base column —
// keys, IDs, coordinates, weights — plus the next point ID are
// bit-identical. Compacting first canonicalizes: the unique (key, ID) sort
// order makes the columns deterministic for a given live set, and the block
// aggregates are derived from them.
func requireSameState(t *testing.T, got, want *pointstore.Mutable) {
	t.Helper()
	got.Compact()
	want.Compact()
	g := got.Snapshot().BaseColumns()
	w := want.Snapshot().BaseColumns()
	switch {
	case !u64Equal(g.Keys, w.Keys):
		t.Fatalf("keys differ: %d vs %d rows", len(g.Keys), len(w.Keys))
	case !u64Equal(g.IDs, w.IDs):
		t.Fatal("IDs differ")
	case !ptsEqual(g.Pts, w.Pts):
		t.Fatal("points differ")
	case !f64Equal(g.Weights, w.Weights):
		t.Fatal("weights differ")
	case got.NextID() != want.NextID():
		t.Fatalf("nextID %d, want %d", got.NextID(), want.NextID())
	case got.Dropped() != want.Dropped():
		t.Fatalf("dropped %d, want %d", got.Dropped(), want.Dropped())
	}
}

// mutate applies a deterministic tail of appends and deletes through the
// durable store, returning the same mutations applied to the oracle.
func mutate(t *testing.T, d *Durable, oracle *pointstore.Mutable) {
	t.Helper()
	pts, ws := tpoints(700)
	pts, ws = pts[512:], ws[512:]
	ids, err := d.Append(pts[:100], ws[:100])
	if err != nil {
		t.Fatal(err)
	}
	oids, err := oracle.Append(pts[:100], ws[:100])
	if err != nil {
		t.Fatal(err)
	}
	if !u64Equal(ids, oids) {
		t.Fatal("durable append assigned different IDs than the oracle")
	}
	del := append([]uint64{1, 3, 5, 250}, ids[10:20]...)
	if n, err := d.Delete(del...); err != nil {
		t.Fatal(err)
	} else if on := oracle.Delete(del...); n != on {
		t.Fatalf("deleted %d, oracle %d", n, on)
	}
	if _, err := d.Append(pts[100:], ws[100:]); err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.Append(pts[100:], ws[100:]); err != nil {
		t.Fatal(err)
	}
}

// TestReopenReplaysTail is the basic durability roundtrip: create, mutate
// (leaving an un-checkpointed WAL tail), close, reopen — full-load and mmap
// — and require the recovered store bit-identical to the surviving oracle.
func TestReopenReplaysTail(t *testing.T) {
	for _, fullLoad := range []bool{true, false} {
		name := "mmap"
		if fullLoad {
			name = "fullload"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			oracle := newTestMutable(t, 512, true)
			d, err := Create(dir, newTestMutable(t, 512, true), Options{})
			if err != nil {
				t.Fatal(err)
			}
			mutate(t, d, oracle)
			st := d.Stats()
			if st.WALRecords != 3 {
				t.Fatalf("WALRecords = %d, want 3", st.WALRecords)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}

			d2, err := Open(dir, openOptions(fullLoad))
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			st2 := d2.Stats()
			if st2.WALRecords != 3 {
				t.Fatalf("recovered WALRecords = %d, want 3", st2.WALRecords)
			}
			if fullLoad && st2.MMapped {
				t.Fatal("MMapped through a filesystem other than OSFS")
			}
			if st2.RecoveryWall <= 0 {
				t.Fatal("RecoveryWall not measured")
			}
			requireSameState(t, d2.Mutable(), oracle)
		})
	}
}

// TestReopenAfterCheckpoint: a checkpoint folds the WAL into the snapshot;
// reopening finds an empty log and the exact compacted state, and the
// retired log file is gone.
func TestReopenAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	oracle := newTestMutable(t, 512, true)
	d, err := Create(dir, newTestMutable(t, 512, true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen0 := d.Stats().Generation
	mutate(t, d, oracle)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.WALRecords != 0 {
		t.Fatalf("WALRecords = %d after checkpoint, want 0", st.WALRecords)
	}
	if st.Generation == gen0 {
		t.Fatal("checkpoint did not advance the on-disk generation")
	}
	if _, err := os.Stat(filepath.Join(dir, WALName(gen0))); !os.IsNotExist(err) {
		t.Fatalf("generation-%d log not retired: %v", gen0, err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.Stats().WALRecords; got != 0 {
		t.Fatalf("recovered WALRecords = %d, want 0", got)
	}
	requireSameState(t, d2.Mutable(), oracle)
}

// TestIdempotentCheckpoint: with nothing mutated since the last checkpoint,
// Checkpoint must not rewrite the snapshot (same generation, no error).
func TestIdempotentCheckpoint(t *testing.T) {
	dir := t.TempDir()
	d, err := Create(dir, newTestMutable(t, 64, true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	gen := d.Stats().Generation
	for i := 0; i < 3; i++ {
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Stats().Generation; got != gen {
		t.Fatalf("idle checkpoint advanced generation %d -> %d", gen, got)
	}
}

// TestWeightlessRoundtrip: a store without an attribute column persists no
// derived sections and recovers weightless.
func TestWeightlessRoundtrip(t *testing.T) {
	dir := t.TempDir()
	oracle := newTestMutable(t, 300, false)
	d, err := Create(dir, newTestMutable(t, 300, false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	pts, _ := tpoints(310)
	if _, err := d.Append(pts[300:], nil); err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.Append(pts[300:], nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Delete(2, 4); err != nil {
		t.Fatal(err)
	}
	oracle.Delete(2, 4)
	d.Close()

	for _, fullLoad := range []bool{true, false} {
		d2, err := Open(dir, openOptions(fullLoad))
		if err != nil {
			t.Fatal(err)
		}
		if d2.Mutable().HasWeights() {
			t.Fatal("weightless store recovered with weights")
		}
		requireSameState(t, d2.Mutable(), oracle)
		d2.Close()
	}
}

// TestEmptyRoundtrip: zero rows is a valid snapshot (weighted and not).
func TestEmptyRoundtrip(t *testing.T) {
	for _, weighted := range []bool{true, false} {
		dir := t.TempDir()
		oracle := newTestMutable(t, 0, weighted)
		d, err := Create(dir, newTestMutable(t, 0, weighted), Options{})
		if err != nil {
			t.Fatal(err)
		}
		d.Close()
		d2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if d2.Mutable().HasWeights() != weighted {
			t.Fatalf("weighted = %v recovered as %v", weighted, d2.Mutable().HasWeights())
		}
		requireSameState(t, d2.Mutable(), oracle)
		// The recovered empty store must accept appends and assign ID 0.
		ids, err := d2.Append([]geom.Point{{X: 8, Y: 8}}, weightsFor(weighted, 2))
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 1 || ids[0] != 0 {
			t.Fatalf("first ID after empty reopen = %v, want [0]", ids)
		}
		d2.Close()
	}
}

func weightsFor(weighted bool, w float64) []float64 {
	if !weighted {
		return nil
	}
	return []float64{w}
}

// TestMMapVsFullLoadParity opens the same directory both ways and requires
// bit-identical states, with Stats reporting the serving mode truthfully.
func TestMMapVsFullLoadParity(t *testing.T) {
	dir := t.TempDir()
	oracle := newTestMutable(t, 512, true)
	d, err := Create(dir, newTestMutable(t, 512, true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, d, oracle)
	d.Close()

	full, err := Open(dir, openOptions(true))
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	mapped, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if full.Stats().MMapped {
		t.Fatal("full-load store claims to be mapped")
	}
	if mmapSupported && !mapped.Stats().MMapped {
		t.Fatal("mmap-supported platform fell back to full load")
	}
	requireSameState(t, mapped.Mutable(), full.Mutable())
	requireSameState(t, full.Mutable(), oracle)
}

// TestMMappedClearsAtCheckpoint: the MMapped stat tracks the serving mode,
// not the opening mode. A no-op checkpoint (nothing mutated) keeps serving
// from the map; a checkpoint that folds new mutations replaces the mapped
// base with heap-compacted columns and must drop the flag.
func TestMMappedClearsAtCheckpoint(t *testing.T) {
	if !mmapSupported {
		t.Skip("mmap unsupported on this platform")
	}
	dir := t.TempDir()
	d, err := Create(dir, newTestMutable(t, 256, true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.Close()

	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if !d2.Stats().MMapped {
		t.Fatal("freshly opened store is not mapped")
	}
	if err := d2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !d2.Stats().MMapped {
		t.Fatal("no-op checkpoint dropped the mapped base")
	}
	if _, err := d2.Append([]geom.Point{{X: 3, Y: 3}}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := d2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if d2.Stats().MMapped {
		t.Fatal("MMapped still set after the checkpoint compacted the base onto the heap")
	}
}

// TestGroupCommitSyncs: records written under a group-commit interval are
// synced by the timer without an explicit Sync, and Sync flushes eagerly.
func TestGroupCommitSyncs(t *testing.T) {
	dir := t.TempDir()
	d, err := Create(dir, newTestMutable(t, 64, true), Options{GroupCommit: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Append([]geom.Point{{X: 1, Y: 1}}, []float64{2}); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	// Let the timer path run too (idempotent after the explicit Sync).
	if _, err := d.Append([]geom.Point{{X: 2, Y: 2}}, []float64{4}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if st := d.Stats(); st.Err != nil || st.WALRecords != 2 {
		t.Fatalf("stats after group commit: %+v", st)
	}
}

// TestCorruptSnapshotRefused: flipping any single byte of the snapshot file
// must fail Open with a checksum (or structural) error, never load garbage.
// Every 97th byte keeps the sweep fast while still crossing the header, the
// section table and all seven sections.
func TestCorruptSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	d, err := Create(dir, newTestMutable(t, 200, true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	path := filepath.Join(dir, SnapshotName)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(good); off += 97 {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x40
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, openOptions(true)); err == nil {
			t.Fatalf("corruption at byte %d accepted", off)
		}
		if _, err := Open(dir, Options{}); err == nil {
			t.Fatalf("corruption at byte %d accepted via mmap", off)
		}
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err != nil {
		t.Fatalf("pristine snapshot refused after sweep: %v", err)
	}
}

// TestNonFiniteWeightRefused: a snapshot is input from outside the program,
// so one whose checksums hold but whose weight column carries a NaN or ±Inf
// must not open through either load path, and the error names the row.
func TestNonFiniteWeightRefused(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		dir := t.TempDir()
		d, err := Create(dir, goldenStore(t), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, SnapshotName)
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, secs, err := parseSnapshot(img)
		if err != nil {
			t.Fatal(err)
		}
		ws := secs[secWeights]
		binary.LittleEndian.PutUint64(img[ws.off+8:], math.Float64bits(bad))
		// Re-seal the image: the weight section's checksum, then the header's.
		nsec := int(binary.LittleEndian.Uint32(img[44:]))
		for i := 0; i < nsec; i++ {
			if e := img[headerFixedSize+i*sectionEntrySize:]; binary.LittleEndian.Uint32(e) == secWeights {
				binary.LittleEndian.PutUint32(e[4:], crc32.Checksum(img[ws.off:ws.off+ws.size], castagnoli))
			}
		}
		tableEnd := headerFixedSize + sectionEntrySize*nsec
		binary.LittleEndian.PutUint32(img[tableEnd:], crc32.Checksum(img[:tableEnd], castagnoli))
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, fullLoad := range []bool{true, false} {
			d, err := Open(dir, openOptions(fullLoad))
			if err == nil {
				d.Close()
				t.Fatalf("weight %v, fullLoad=%v: snapshot opened", bad, fullLoad)
			}
			if !strings.Contains(err.Error(), "weight 1 ") {
				t.Fatalf("weight %v, fullLoad=%v: error %q does not name row 1", bad, fullLoad, err)
			}
		}
	}
}

// openCrafted writes meta and cols as the snapshot of a fresh directory —
// every checksum valid — and opens it through both load paths, returning
// each path's error.
func openCrafted(t *testing.T, meta snapMeta, cols pointstore.BaseColumns) []error {
	t.Helper()
	var buf memWriteFile
	if _, err := writeSnapshot(&buf, meta, cols); err != nil {
		t.Fatal(err)
	}
	var errs []error
	for _, fullLoad := range []bool{true, false} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, SnapshotName), buf.data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := Open(dir, openOptions(fullLoad))
		if err == nil {
			d.Close()
		}
		errs = append(errs, err)
	}
	return errs
}

// TestDuplicateIDRefused: a snapshot whose rows keep (key, ID) order but
// carry one ID twice, at two keys, must not open — a Delete of that ID would
// remove one row and report the other gone — and the error names the ID and
// both rows.
func TestDuplicateIDRefused(t *testing.T) {
	m := goldenStore(t)
	meta := snapMetaFor(m)
	cols := m.Snapshot().BaseColumns()
	if cols.Keys[0] == cols.Keys[3] {
		t.Fatal("fixture rows 0 and 3 share a key")
	}
	cols.IDs = slices.Clone(cols.IDs)
	cols.IDs[3] = cols.IDs[0]
	want := fmt.Sprintf("ID %d appears at rows 0 and 3", cols.IDs[0])
	for i, err := range openCrafted(t, meta, cols) {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("load path %d: error %v, want one containing %q", i, err, want)
		}
	}
}

// TestDroppedBeyondNextIDRefused: every row and every dropped point consumed
// an ID of its own, so a header whose rows and dropped count exceed nextID
// must not open — 2^63 dropped points would read back as a negative count —
// while the largest consistent count opens and reads back exactly.
func TestDroppedBeyondNextIDRefused(t *testing.T) {
	m := goldenStore(t)
	meta := snapMetaFor(m)
	cols := m.Snapshot().BaseColumns()
	spare := meta.nextID - meta.rows
	for _, dropped := range []uint64{spare + 1, 1 << 63, math.MaxUint64} {
		meta.dropped = dropped
		for i, err := range openCrafted(t, meta, cols) {
			if err == nil || !strings.Contains(err.Error(), "dropped points under next ID") {
				t.Fatalf("dropped %d, load path %d: error %v", dropped, i, err)
			}
		}
	}
	meta.nextID += 5
	meta.dropped = spare + 5
	var buf memWriteFile
	if _, err := writeSnapshot(&buf, meta, cols); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, SnapshotName), buf.data, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("consistent header refused: %v", err)
	}
	defer d.Close()
	if got := d.Mutable().Dropped(); uint64(got) != meta.dropped {
		t.Fatalf("Dropped() = %d, header says %d", got, meta.dropped)
	}
}
