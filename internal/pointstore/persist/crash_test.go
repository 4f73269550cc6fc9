// Differential crash-recovery sweeps: a scripted mutation stream runs
// against a fault-injecting filesystem, and for EVERY filesystem call — and
// several torn-write variants of it — the process "dies" there, recovers,
// and must land on a state bit-identical to a valid oracle state (the one
// before or the one after the interrupted operation), never a torn hybrid.
//
// The file is an external test: errorfs imports persist, so driving persist
// through it from an in-package test would cycle.
package persist_test

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"distbound/internal/geom"
	"distbound/internal/pointstore"
	"distbound/internal/pointstore/persist"
	"distbound/internal/sfc"
	"distbound/internal/testutil/errorfs"
)

const crashDir = "db"

var crashDom = sfc.Domain{Origin: geom.Point{}, Size: 1024}

// crashPoints returns the deterministic fixture relation; index 5 lies
// outside the domain, so the construction-time dropped count is non-zero
// and must survive persistence.
func crashPoints() ([]geom.Point, []float64) {
	n := 64
	pts := make([]geom.Point, n)
	ws := make([]float64, n)
	seed := uint64(0x2545f4914f6cdd1d)
	rnd := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>11) / float64(uint64(1)<<53)
	}
	for i := range pts {
		pts[i] = geom.Point{X: float64(int(rnd()*8192)) / 8, Y: float64(int(rnd()*8192)) / 8}
		ws[i] = float64(int(rnd()*512)) / 16
	}
	pts[5] = geom.Point{X: -64, Y: -64}
	return pts, ws
}

func freshCrashMutable(t testing.TB) *pointstore.Mutable {
	t.Helper()
	pts, ws := crashPoints()
	m, err := pointstore.NewMutable(pts[:48], ws[:48], crashDom, sfc.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// scriptOp is one logical operation of the crash script.
type scriptOp struct {
	kind byte // 'a' append, 'd' delete, 'c' checkpoint
	pts  []geom.Point
	ws   []float64
	ids  []uint64
}

// crashScript exercises every mutation shape around two checkpoints, ending
// with an un-checkpointed WAL tail.
func crashScript() []scriptOp {
	pts, ws := crashPoints()
	return []scriptOp{
		{kind: 'a', pts: pts[48:53], ws: ws[48:53]}, // ids 48..52
		{kind: 'd', ids: []uint64{1, 3, 49}},
		{kind: 'c'},
		{kind: 'a', pts: pts[53:57], ws: ws[53:57]}, // ids 53..56
		{kind: 'd', ids: []uint64{2, 53}},
		{kind: 'a', pts: pts[57:60], ws: ws[57:60]}, // ids 57..59
		{kind: 'c'},
		{kind: 'd', ids: []uint64{57, 0}},
		{kind: 'a', pts: pts[60:64], ws: ws[60:64]}, // ids 60..63
	}
}

// lastCheckpointIndex returns the script index of the final checkpoint op.
func lastCheckpointIndex(scr []scriptOp) int {
	last := -1
	for i, op := range scr {
		if op.kind == 'c' {
			last = i
		}
	}
	return last
}

func applyDurable(d *persist.Durable, op scriptOp) error {
	switch op.kind {
	case 'a':
		_, err := d.Append(op.pts, op.ws)
		return err
	case 'd':
		_, err := d.Delete(op.ids...)
		return err
	default:
		return d.Checkpoint()
	}
}

func applyOracle(t testing.TB, m *pointstore.Mutable, op scriptOp) {
	t.Helper()
	switch op.kind {
	case 'a':
		if _, err := m.Append(op.pts, op.ws); err != nil {
			t.Fatal(err)
		}
	case 'd':
		m.Delete(op.ids...)
	}
}

// canon is a store's canonical (compacted) state, every column copied out.
type canon struct {
	keys, ids []uint64
	pts       []geom.Point
	ws        []float64
	nextID    uint64
	dropped   int
}

func canonicalize(m *pointstore.Mutable) canon {
	m.Compact()
	c := m.Snapshot().BaseColumns()
	return canon{
		keys:    append([]uint64(nil), c.Keys...),
		ids:     append([]uint64(nil), c.IDs...),
		pts:     append([]geom.Point(nil), c.Pts...),
		ws:      cloneF(c.Weights),
		nextID:  m.NextID(),
		dropped: m.Dropped(),
	}
}

func cloneF(s []float64) []float64 {
	if s == nil {
		return nil
	}
	return append([]float64(nil), s...)
}

// equalCanon compares bit-for-bit: float columns via Float64bits, so even a
// sign-of-zero divergence between recovery and oracle would be caught.
func equalCanon(a, b canon) bool {
	if len(a.keys) != len(b.keys) || a.nextID != b.nextID || a.dropped != b.dropped {
		return false
	}
	for i := range a.keys {
		if a.keys[i] != b.keys[i] || a.ids[i] != b.ids[i] {
			return false
		}
		if math.Float64bits(a.pts[i].X) != math.Float64bits(b.pts[i].X) ||
			math.Float64bits(a.pts[i].Y) != math.Float64bits(b.pts[i].Y) {
			return false
		}
	}
	if (a.ws == nil) != (b.ws == nil) || len(a.ws) != len(b.ws) {
		return false
	}
	for i := range a.ws {
		if math.Float64bits(a.ws[i]) != math.Float64bits(b.ws[i]) {
			return false
		}
	}
	return true
}

// oracleStates returns states[j] = the canonical state after Create plus
// the first j script ops, for j in [0, len(scr)].
func oracleStates(t testing.TB, scr []scriptOp) []canon {
	t.Helper()
	states := make([]canon, len(scr)+1)
	for j := 0; j <= len(scr); j++ {
		m := freshCrashMutable(t)
		for _, op := range scr[:j] {
			applyOracle(t, m, op)
		}
		states[j] = canonicalize(m)
	}
	return states
}

// runScript creates the durable store on fs and applies the script,
// returning the durable handle and the 1-based index of the first logical
// op that errored (0 = Create failed, -1 = everything succeeded).
func runScript(t testing.TB, fs *errorfs.FS, scr []scriptOp) (*persist.Durable, int) {
	t.Helper()
	m := freshCrashMutable(t)
	d, err := persist.Create(crashDir, m, persist.Options{FS: fs})
	if err != nil {
		return nil, 0
	}
	for j, op := range scr {
		if err := applyDurable(d, op); err != nil {
			return d, j + 1
		}
	}
	return d, -1
}

// TestCrashRecoverySweep is the atomicity acceptance criterion: for every
// filesystem call the script performs, and for plain-fail plus four torn
// payload lengths, kill the filesystem there, recover, reopen, and require
// a state bit-identical to the oracle state just before or just after the
// interrupted logical op. An op that was acknowledged before the crash must
// be fully present (the run past the last op allows only the final state).
func TestCrashRecoverySweep(t *testing.T) {
	scr := crashScript()
	states := oracleStates(t, scr)

	dry := errorfs.New()
	if _, failed := runScript(t, dry, scr); failed != -1 {
		t.Fatalf("dry run failed at logical op %d", failed)
	}
	total := dry.Ops()
	if total < 40 {
		t.Fatalf("suspiciously few filesystem calls: %d", total)
	}

	snapPath := filepath.Join(crashDir, persist.SnapshotName)
	for k := 0; k < total; k++ {
		for _, keep := range []int{-1, 0, 1, 7, 1 << 20} {
			fs := errorfs.New()
			if keep < 0 {
				fs.CrashAt(k)
			} else {
				fs.CrashAtTorn(k, keep)
			}
			_, failedAt := runScript(t, fs, scr)
			fs.Recover()

			d2, err := persist.Open(crashDir, persist.Options{FS: fs})
			if err != nil {
				if fs.Data(snapPath) != nil {
					t.Fatalf("crash at call %d (keep %d): snapshot exists but recovery failed: %v\ntrace tail: %v",
						k, keep, err, tail(fs.Trace(), 6))
				}
				if failedAt != 0 {
					t.Fatalf("crash at call %d (keep %d): script reached op %d yet no snapshot survived",
						k, keep, failedAt)
				}
				continue
			}
			got := canonicalize(d2.Mutable())
			switch {
			case failedAt == -1:
				if !equalCanon(got, states[len(scr)]) {
					t.Fatalf("crash at call %d (keep %d) during post-acknowledge cleanup: recovered state lost acknowledged ops", k, keep)
				}
			case failedAt == 0:
				// Create itself was interrupted after the snapshot became
				// visible: only the initial state may have been captured.
				if !equalCanon(got, states[0]) {
					t.Fatalf("crash at call %d (keep %d) during Create: snapshot holds a non-initial state", k, keep)
				}
			case equalCanon(got, states[failedAt-1]) || equalCanon(got, states[failedAt]):
				// pre-op or post-op oracle state: exactly what atomicity allows
			default:
				t.Fatalf("crash at call %d (keep %d), logical op %d: recovered a state matching neither the pre-op nor post-op oracle\ntrace tail: %v",
					k, keep, failedAt, tail(fs.Trace(), 6))
			}
		}
	}
}

// TestFailThenContinueThenCrashSweep covers the window the crash sweep
// cannot: a filesystem call fails CLEANLY — the process survives and keeps
// going — the store keeps acknowledging whatever it still accepts, and only
// later does the machine die. For every call index the script performs,
// recovery after that late crash must land exactly on the acknowledged
// state: every mutation acknowledged after the injected failure present,
// every refused one absent. This is the regression gate for the checkpoint
// directory-sync window, where continuing to log into a superseded
// generation would silently drop acknowledged mutations.
func TestFailThenContinueThenCrashSweep(t *testing.T) {
	scr := crashScript()
	states := oracleStates(t, scr)

	dry := errorfs.New()
	if _, failed := runScript(t, dry, scr); failed != -1 {
		t.Fatalf("dry run failed at logical op %d", failed)
	}
	total := dry.Ops()

	for k := 0; k < total; k++ {
		fs := errorfs.New()
		fs.FailAt(k)
		m := freshCrashMutable(t)
		d, err := persist.Create(crashDir, m, persist.Options{FS: fs})
		if err != nil {
			continue // Create absorbed the failure; nothing was acknowledged
		}
		// Apply every op regardless of earlier failures, tracking the last
		// acknowledged one. A failed mutation wedges the store (everything
		// later is refused), and a failed checkpoint changes no logical
		// state, so the acknowledged state is always an oracle prefix.
		ack := 0
		for j, op := range scr {
			if err := applyDurable(d, op); err == nil {
				ack = j + 1
			}
		}
		fs.Crash()
		fs.Recover()
		d2, err := persist.Open(crashDir, persist.Options{FS: fs})
		if err != nil {
			t.Fatalf("fail at call %d: reopen after the late crash failed: %v\ntrace tail: %v",
				k, err, tail(fs.Trace(), 6))
		}
		if !equalCanon(canonicalize(d2.Mutable()), states[ack]) {
			t.Fatalf("fail at call %d: recovered state diverges from the acknowledged prefix (%d ops)\ntrace tail: %v",
				k, ack, tail(fs.Trace(), 6))
		}
	}
}

func tail(s []string, n int) []string {
	if len(s) <= n {
		return s
	}
	return s[len(s)-n:]
}

// TestWALTruncationEveryByteOffset plants the final snapshot plus every
// prefix of the final WAL — all byte offsets b in [0, len] — and requires
// recovery to replay exactly the complete records within the prefix:
// recovered state == oracle state at (last checkpoint + records replayed),
// with the replayed count nondecreasing in b and complete at b = len.
func TestWALTruncationEveryByteOffset(t *testing.T) {
	scr := crashScript()
	states := oracleStates(t, scr)
	ckpt := lastCheckpointIndex(scr)
	tailOps := len(scr) - ckpt - 1

	fs := errorfs.New()
	d, failed := runScript(t, fs, scr)
	if failed != -1 {
		t.Fatalf("clean run failed at logical op %d", failed)
	}
	gen := d.Stats().Generation
	snap := fs.Data(filepath.Join(crashDir, persist.SnapshotName))
	wal := fs.Data(filepath.Join(crashDir, persist.WALName(gen)))
	if snap == nil || wal == nil {
		t.Fatal("clean run left no snapshot or log")
	}

	prevRecs := int64(-1)
	for b := 0; b <= len(wal); b++ {
		fs2 := errorfs.New()
		fs2.SetData(filepath.Join(crashDir, persist.SnapshotName), snap)
		fs2.SetData(filepath.Join(crashDir, persist.WALName(gen)), wal[:b])
		d2, err := persist.Open(crashDir, persist.Options{FS: fs2})
		if err != nil {
			t.Fatalf("offset %d: recovery failed: %v", b, err)
		}
		recs := int64(d2.Stats().WALRecords)
		if recs < prevRecs {
			t.Fatalf("offset %d: replayed records fell from %d to %d", b, prevRecs, recs)
		}
		prevRecs = recs
		idx := ckpt + 1 + int(recs)
		if idx >= len(states) {
			t.Fatalf("offset %d: replayed %d records, more than the %d tail ops", b, recs, tailOps)
		}
		if !equalCanon(canonicalize(d2.Mutable()), states[idx]) {
			t.Fatalf("offset %d: recovered state does not match oracle after %d tail records", b, recs)
		}
	}
	if prevRecs != int64(tailOps) {
		t.Fatalf("full log replayed %d records, want %d", prevRecs, tailOps)
	}
}

// TestInjectedFailureSemantics pins the wedge contract: a WAL write failure
// wedges the store (sticky Err, mutations refused), while a checkpoint
// failure is recorded, non-wedging, and retryable.
func TestInjectedFailureSemantics(t *testing.T) {
	t.Run("wal-failure-wedges", func(t *testing.T) {
		fs := errorfs.New()
		d, failed := runScript(t, fs, nil)
		if failed != -1 {
			t.Fatalf("create failed at %d", failed)
		}
		pts, ws := crashPoints()
		fs.FailAt(fs.Ops()) // the very next call: the WAL record write
		if _, err := d.Append(pts[48:49], ws[48:49]); err == nil {
			t.Fatal("append with failing log write succeeded")
		}
		if st := d.Stats(); st.Err == nil {
			t.Fatal("lost log record did not wedge the store")
		}
		if _, err := d.Append(pts[49:50], ws[49:50]); err == nil {
			t.Fatal("wedged store accepted a mutation")
		}
		if err := d.Checkpoint(); err == nil {
			t.Fatal("wedged store accepted a checkpoint")
		}
	})
	t.Run("checkpoint-failure-retries", func(t *testing.T) {
		fs := errorfs.New()
		d, failed := runScript(t, fs, nil)
		if failed != -1 {
			t.Fatalf("create failed at %d", failed)
		}
		pts, ws := crashPoints()
		if _, err := d.Append(pts[48:52], ws[48:52]); err != nil {
			t.Fatal(err)
		}
		fs.FailAt(fs.Ops()) // the very next call: the temp snapshot create
		if err := d.Checkpoint(); err == nil {
			t.Fatal("checkpoint with failing temp create succeeded")
		}
		st := d.Stats()
		if st.CheckpointErr == nil || st.Err != nil {
			t.Fatalf("checkpoint failure misfiled: %+v", st)
		}
		if _, err := d.Append(pts[52:53], ws[52:53]); err != nil {
			t.Fatalf("non-wedging failure refused a mutation: %v", err)
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatalf("checkpoint retry failed: %v", err)
		}
		if st := d.Stats(); st.CheckpointErr != nil || st.WALRecords != 0 {
			t.Fatalf("retry did not clear the failure: %+v", st)
		}
	})
	t.Run("dirsync-failure-after-rename-wedges", func(t *testing.T) {
		pts, ws := crashPoints()
		// Dry-run the same sequence to locate the call index of the
		// directory sync inside the checkpoint that follows one append.
		probe := errorfs.New()
		d0, failed := runScript(t, probe, nil)
		if failed != -1 {
			t.Fatalf("create failed at %d", failed)
		}
		if _, err := d0.Append(pts[48:52], ws[48:52]); err != nil {
			t.Fatal(err)
		}
		mark := probe.Ops()
		if err := d0.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		syncIdx := -1
		for i, line := range probe.Trace()[mark:] {
			if strings.HasPrefix(line, "syncdir ") {
				syncIdx = mark + i
				break
			}
		}
		if syncIdx < 0 {
			t.Fatal("checkpoint trace has no directory sync")
		}

		fs := errorfs.New()
		d, failed := runScript(t, fs, nil)
		if failed != -1 {
			t.Fatalf("create failed at %d", failed)
		}
		if _, err := d.Append(pts[48:52], ws[48:52]); err != nil {
			t.Fatal(err)
		}
		fs.FailAt(syncIdx)
		if err := d.Checkpoint(); err == nil {
			t.Fatal("checkpoint with failing directory sync succeeded")
		}
		st := d.Stats()
		if st.Err == nil || st.CheckpointErr == nil {
			t.Fatalf("post-rename directory-sync failure must wedge: %+v", st)
		}
		// Fail, then continue: the wedged store must refuse the mutation
		// rather than acknowledge it into a log recovery may ignore...
		if _, err := d.Append(pts[52:53], ws[52:53]); err == nil {
			t.Fatal("wedged store acknowledged a mutation after an ambiguous checkpoint")
		}
		// ...then crash: whichever (snapshot, log) pair the platform kept —
		// the model keeps the renamed one — recovery holds every
		// acknowledged mutation and nothing else.
		fs.Crash()
		fs.Recover()
		d2, err := persist.Open(crashDir, persist.Options{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		want := freshCrashMutable(t)
		if _, err := want.Append(pts[48:52], ws[48:52]); err != nil {
			t.Fatal(err)
		}
		if !equalCanon(canonicalize(d2.Mutable()), canonicalize(want)) {
			t.Fatal("acknowledged appends lost across the wedged checkpoint")
		}
	})
}
