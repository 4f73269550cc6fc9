package pointstore

import (
	"math"
	"sort"
	"testing"

	"distbound/internal/geom"
	"distbound/internal/sfc"
)

// FuzzMutableOps drives random Append/Delete/Compact sequences against the
// mutable store and checks every intermediate state against a naive
// map-based reference. The op stream is the fuzz input, three bytes per op:
//
//	op%4 == 0:  append point (x, y) = (4·b1, 4·b2) with weight int8(b1+b2)/8
//	op%4 == 1:  delete the (b1·256+b2 mod issued)-th ID ever issued
//	op%4 == 2:  compact (operand bytes ignored)
//	op%4 == 3:  check the sub-key-range carved out by b1, b2
//
// Weights are exact eighths, so COUNT/SUM/MIN/MAX over any range must match
// the reference bit-for-bit at every step, pre- and post-compaction. Every
// range check also resolves its boundaries through the batch SpanMulti
// sweep and requires it to agree with a binary search over the base key
// column — the invariant the cover-plan execution's boundary resolution rests
// on. Every compaction additionally
// cross-checks the radix-sort-and-merge machinery against a from-scratch
// rebuild of the surviving rows: the published base must be bit-identical
// (keys, IDs, weights, points, block sums and extremes) to a stable
// (key, ID) sort of the reference.
func FuzzMutableOps(f *testing.F) {
	f.Add([]byte("012345678"))
	f.Add([]byte("\x00\x10\x20\x01\x00\x00\x02\x00\x00\x03\x40\xff"))
	f.Add([]byte("aAzZ09!?~qwertyuiopasdfghjklzxcvbnm"))
	f.Add([]byte("\x00\xff\xff\x00\x00\x00\x01\x00\x01\x02..\x03\x00\xff\x01\x00\x02"))
	// Inverted-delta-join shapes. Duplicate-key delta rows (three appends of
	// the same point land on one leaf key — a shared range boundary), then a
	// range check straddling them:
	f.Add([]byte("\x00\x40\x40\x00\x40\x40\x00\x40\x40\x03\x00\xff"))
	// Delta rows tombstoned again before compaction (append, append, delete
	// the first delta row, check, delete the second, check, compact, check):
	f.Add([]byte("\x00\x30\x30\x00\x50\x50\x01\x00\x03\x03\x00\xff\x01\x00\x04\x03\x00\xff\x02\x00\x00\x03\x00\xff"))
	// Empty postings / miss path: appends clustered at one corner, checks
	// carving sub-ranges far away from them (no delta key in range):
	f.Add([]byte("\x00\x01\x01\x00\x02\x01\x00\x01\x02\x03\xe0\xff\x03\x00\x10\x03\x80\x9f"))
	// Append → compact → append again, so checks see base and delta rows at
	// identical keys simultaneously:
	f.Add([]byte("\x00\x40\x40\x02\x00\x00\x00\x40\x40\x00\x40\x41\x03\x00\xff"))

	f.Fuzz(func(t *testing.T, ops []byte) {
		d, err := sfc.NewDomain(geom.Pt(0, 0), 1024)
		if err != nil {
			t.Fatal(err)
		}
		c := sfc.Hilbert{}
		seedPts := []geom.Point{geom.Pt(1, 1), geom.Pt(512, 512), geom.Pt(1000, 3)}
		seedWs := []float64{0.5, -2, 7.25}
		m, err := NewMutable(seedPts, seedWs, d, c)
		if err != nil {
			t.Fatal(err)
		}
		type rec struct {
			key  uint64
			w    float64
			pt   geom.Point
			live bool
		}
		var issued []rec // index == ID
		for i, p := range seedPts {
			pos, ok := d.LeafPos(c, p)
			if !ok {
				t.Fatal("seed point outside domain")
			}
			issued = append(issued, rec{key: pos, w: seedWs[i], pt: p, live: true})
		}

		// verifyCompacted cross-checks a just-compacted store against a
		// from-scratch rebuild: surviving rows stably sorted by key (IDs
		// ascend within equal keys, the order both installBase call sites
		// guarantee) must reproduce the published base bit-for-bit.
		verifyCompacted := func() {
			t.Helper()
			s := m.Snapshot()
			if s.DeltaLen() != 0 || s.Tombstones() != 0 {
				t.Fatalf("compaction left delta=%d tombstones=%d", s.DeltaLen(), s.Tombstones())
			}
			type row struct {
				key uint64
				id  uint64
				w   float64
				pt  geom.Point
			}
			var rows []row
			for id, r := range issued {
				if r.live {
					rows = append(rows, row{key: r.key, id: uint64(id), w: r.w, pt: r.pt})
				}
			}
			sort.SliceStable(rows, func(a, b int) bool { return rows[a].key < rows[b].key })
			keys := make([]uint64, len(rows))
			ws := make([]float64, len(rows))
			ids := make([]uint64, len(rows))
			pts := make([]geom.Point, len(rows))
			for i, r := range rows {
				keys[i], ws[i], ids[i], pts[i] = r.key, r.w, r.id, r.pt
			}
			st, err := newStoreSorted(keys, ws)
			if err != nil {
				t.Fatal(err)
			}
			want := &Snapshot{
				base:    st,
				baseIDs: ids,
				basePts: pts,
				idFirst: uint64(len(issued)),
				gen:     s.Gen(),
			}
			requireSnapshotBitIdentical(t, s, want)
		}

		check := func(lo, hi uint64) {
			t.Helper()
			var cnt int
			sum := 0.0
			mn, mx := math.Inf(1), math.Inf(-1)
			for _, r := range issued {
				if !r.live || r.key < lo || r.key > hi {
					continue
				}
				cnt++
				sum += r.w
				mn = math.Min(mn, r.w)
				mx = math.Max(mx, r.w)
			}
			s := m.Snapshot()
			i, j := keySpan(s.BaseColumns().Keys, lo, hi)
			// The batch boundary sweep must resolve to the same span.
			probes := []uint64{lo}
			if hi != math.MaxUint64 {
				probes = append(probes, hi+1)
			}
			resolved := make([]int, len(probes))
			s.SpanMulti(probes, resolved)
			if resolved[0] != i || (len(resolved) == 2 && resolved[1] != j) {
				t.Fatalf("range [%d,%d]: SpanMulti resolved %v, search gave (%d,%d)", lo, hi, resolved, i, j)
			}
			gotCnt, gotSum := s.CountSpan(i, j), s.SumSpan(i, j)
			gotMin, gotMax := s.MinSpan(i, j), s.MaxSpan(i, j)
			for k, dn := 0, s.DeltaLen(); k < dn; k++ {
				if !s.DeltaLive(k) {
					continue
				}
				key := s.DeltaKey(k)
				if key < lo || key > hi {
					continue
				}
				gotCnt++
				w := s.DeltaWeight(k)
				gotSum += w
				gotMin = math.Min(gotMin, w)
				gotMax = math.Max(gotMax, w)
			}
			if gotCnt != cnt || gotSum != sum {
				t.Fatalf("range [%d,%d]: got count/sum %d/%g, want %d/%g", lo, hi, gotCnt, gotSum, cnt, sum)
			}
			if cnt > 0 && (gotMin != mn || gotMax != mx) {
				t.Fatalf("range [%d,%d]: got extremes %g/%g, want %g/%g", lo, hi, gotMin, gotMax, mn, mx)
			}
		}

		for i := 0; i+2 < len(ops); i += 3 {
			op, b1, b2 := ops[i], ops[i+1], ops[i+2]
			switch op % 4 {
			case 0:
				p := geom.Pt(float64(b1)*4, float64(b2)*4)
				w := float64(int8(b1+b2)) / 8
				ids, err := m.Append([]geom.Point{p}, []float64{w})
				if err != nil {
					t.Fatalf("append %v: %v", p, err)
				}
				if ids[0] != uint64(len(issued)) {
					t.Fatalf("append assigned ID %d, want %d", ids[0], len(issued))
				}
				pos, _ := d.LeafPos(c, p)
				issued = append(issued, rec{key: pos, w: w, pt: p, live: true})
			case 1:
				id := uint64(int(b1)*256+int(b2)) % uint64(len(issued))
				wantLive := issued[id].live
				got := m.Delete(id)
				if (got == 1) != wantLive {
					t.Fatalf("delete %d reported %d, live was %v", id, got, wantLive)
				}
				issued[id].live = false
			case 2:
				gen, pending := m.Snapshot().Gen(), m.Pending()
				m.Compact()
				if pending > 0 && m.Snapshot().Gen() != gen+1 {
					t.Fatal("compaction with pending rows did not bump the generation")
				}
				if m.Pending() != 0 {
					t.Fatalf("pending %d after compaction", m.Pending())
				}
				verifyCompacted()
			case 3:
				lo := uint64(b1) << 56
				hi := uint64(b2)<<56 + (1<<56 - 1)
				if lo > hi {
					lo, hi = hi&^uint64(1<<56-1), lo|(1<<56-1)
				}
				check(lo, hi)
			}
			check(0, math.MaxUint64)
		}
		// The end state must survive a final compaction bit-for-bit.
		m.Compact()
		verifyCompacted()
		check(0, math.MaxUint64)
		live := 0
		for _, r := range issued {
			if r.live {
				live++
			}
		}
		if m.Len() != live {
			t.Fatalf("final live count %d != reference %d", m.Len(), live)
		}
	})
}
