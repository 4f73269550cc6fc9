package join

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"distbound/internal/data"
	"distbound/internal/geom"
	"distbound/internal/sfc"
)

// planDigest hashes every field of a cover table, each as its length and
// then its values, little-endian.
func planDigest(p *coverPlan) string {
	h := sha256.New()
	put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	ints := func(xs []int32) {
		put(uint64(len(xs)))
		for _, x := range xs {
			put(uint64(uint32(x)))
		}
	}
	put(uint64(len(p.bkeys)))
	for _, k := range p.bkeys {
		put(k)
	}
	ints(p.regOff)
	put(uint64(len(p.ranges)))
	for _, r := range p.ranges {
		put(uint64(uint32(r.lo))<<32 | uint64(uint32(r.hi)))
	}
	ints(p.stabOff)
	ints(p.stabRegions)
	ints(p.radix)
	ints(p.resolved)
	return hex.EncodeToString(h.Sum(nil))
}

// TestCoverTablesPinned holds the cover tables of the bench partition (seed
// 1, 16×16 regions, 12 points an edge) at ε 4, 8, 16 and 64 and exactly, and
// of the Neighborhoods and Boroughs at ε 16, to digests of every table field
// generated at commit 13f91f2, before the set descent walked chord cells on
// their one segment: a change to the descent that moves any cell of any
// cover fails here. ε 4 is skipped under -short.
func TestCoverTablesPinned(t *testing.T) {
	d, c := data.CityDomain(), sfc.Hilbert{}
	ctx := context.Background()
	partition := data.Regions(data.Partition(1, 16, 16, 12))
	for _, tc := range []struct {
		name    string
		regions []geom.Region
		eps     float64 // 0: the exact cover
		digest  string
	}{
		{"partition/e4", partition, 4, "58ce47a26e1dd073a49e5bfce2ab9284710b34514d0780798f0d08d60debe7f0"},
		{"partition/e8", partition, 8, "c86e71d955c3fe56cc5f72fa7ba19a0b10bfb9ea43bb40516a34618888c7a927"},
		{"partition/e16", partition, 16, "ae33e665435af218b249c8961aa1b6a371db6cc2a966b99243efc42ad75bd746"},
		{"partition/e64", partition, 64, "3b3a28916f90b713da3e4b297e3a892b15f2e73fa76dc6074d5efdfdf6b5b4cd"},
		{"partition/exact", partition, 0, "4d0f98665c3c562c2823e188fee00e0373410ee909dd2e67d630e1de9f672a44"},
		{"neighborhoods/e16", data.Regions(data.Neighborhoods(1)), 16, "40d3630cc2354ccadf1ac4121757a1e47abb29be876f18e6eb020f3f4214ffba"},
		{"boroughs/e16", data.Regions(data.Boroughs(1)), 16, "d4a7f8a169188aa4c8137db58ace8c7ce5e767e7d54a95cc78f8c23ae6059aec"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.eps == 4 {
				t.Skip("ε 4 under -short")
			}
			var p *coverPlan
			if tc.eps == 0 {
				ec, err := NewExactCoverCtx(ctx, tc.regions, d, c, 0)
				if err != nil {
					t.Fatal(err)
				}
				p = ec.plan
			} else {
				cs, err := NewCoverSetCtx(ctx, tc.regions, d, c, levelOf(d, tc.eps), 0)
				if err != nil {
					t.Fatal(err)
				}
				p = cs.plan
			}
			if got := planDigest(p); got != tc.digest {
				t.Errorf("table digest %s, want %s (%d keys, %d ranges)", got, tc.digest, len(p.bkeys), len(p.ranges))
			}
		})
	}
}
