package raster

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"distbound/internal/geom"
	"distbound/internal/sfc"
)

// Binary serialization of approximations, so that covers computed offline
// (the paper's precomputed polygon representations) can be stored, shipped
// and memory-mapped by query nodes. Cells are sorted, so the format stores
// varint deltas — boundary cells of an HR approximation are near-consecutive
// along the curve, making this compact.

// encodeMagic identifies the format ("DBA1": distance-bounded approximation,
// version 1).
const encodeMagic = "DBA1"

// Encode serializes the approximation.
func (a *Approximation) Encode() []byte {
	buf := make([]byte, 0, 64+10*(a.NumCells()))
	buf = append(buf, encodeMagic...)
	name := a.Curve.Name()
	buf = append(buf, byte(len(name)))
	buf = append(buf, name...)
	var f [8]byte
	for _, v := range []float64{a.Domain.Origin.X, a.Domain.Origin.Y, a.Domain.Size} {
		binary.LittleEndian.PutUint64(f[:], math.Float64bits(v))
		buf = append(buf, f[:]...)
	}
	buf = appendCellList(buf, a.Interior)
	buf = appendCellList(buf, a.Boundary)
	return buf
}

// appendCellList groups cells by level and delta-encodes curve positions —
// positions of neighbouring cells are close along the curve, so deltas stay
// small where raw cell IDs (position shifted toward the high bits) would
// not.
func appendCellList(buf []byte, ids []sfc.CellID) []byte {
	byLevel := map[int][]uint64{}
	for _, id := range ids {
		byLevel[id.Level()] = append(byLevel[id.Level()], id.Pos())
	}
	buf = binary.AppendUvarint(buf, uint64(len(byLevel)))
	for level := 0; level <= sfc.MaxLevel; level++ {
		poss, ok := byLevel[level]
		if !ok {
			continue
		}
		buf = append(buf, byte(level))
		buf = binary.AppendUvarint(buf, uint64(len(poss)))
		prev := uint64(0)
		for _, p := range poss { // ids sorted ⇒ per-level positions sorted
			buf = binary.AppendUvarint(buf, p-prev)
			prev = p
		}
	}
	return buf
}

// Decode reconstructs an approximation serialized by Encode.
func Decode(data []byte) (*Approximation, error) {
	if len(data) < len(encodeMagic) || string(data[:len(encodeMagic)]) != encodeMagic {
		return nil, fmt.Errorf("raster: bad magic")
	}
	data = data[len(encodeMagic):]
	if len(data) < 1 {
		return nil, fmt.Errorf("raster: truncated header")
	}
	nameLen := int(data[0])
	data = data[1:]
	if len(data) < nameLen+24 {
		return nil, fmt.Errorf("raster: truncated header")
	}
	curve := sfc.CurveByName(string(data[:nameLen]))
	if curve == nil {
		return nil, fmt.Errorf("raster: unknown curve %q", string(data[:nameLen]))
	}
	data = data[nameLen:]
	read := func() float64 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		return v
	}
	ox, oy, size := read(), read(), read()
	domain, err := sfc.NewDomain(geom.Pt(ox, oy), size)
	if err != nil {
		return nil, fmt.Errorf("raster: %w", err)
	}
	interior, rest, err := readCellList(data)
	if err != nil {
		return nil, err
	}
	boundary, rest, err := readCellList(rest)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("raster: %d trailing bytes", len(rest))
	}
	return &Approximation{Domain: domain, Curve: curve, Interior: interior, Boundary: boundary}, nil
}

func readCellList(data []byte) ([]sfc.CellID, []byte, error) {
	numLevels, n := binary.Uvarint(data)
	if n <= 0 || numLevels > sfc.MaxLevel+1 {
		return nil, nil, fmt.Errorf("raster: bad level count")
	}
	data = data[n:]
	var ids []sfc.CellID
	for l := uint64(0); l < numLevels; l++ {
		if len(data) < 1 {
			return nil, nil, fmt.Errorf("raster: truncated level header")
		}
		level := int(data[0])
		data = data[1:]
		if level > sfc.MaxLevel {
			return nil, nil, fmt.Errorf("raster: invalid level %d", level)
		}
		count, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, nil, fmt.Errorf("raster: bad cell count")
		}
		data = data[n:]
		if count > uint64(len(data))+1 { // each delta needs ≥1 byte
			return nil, nil, fmt.Errorf("raster: cell count %d exceeds payload", count)
		}
		maxPos := uint64(1)<<(2*uint(level)) - 1
		if level == 0 {
			maxPos = 0
		}
		prev := uint64(0)
		first := true
		for i := uint64(0); i < count; i++ {
			d, n := binary.Uvarint(data)
			if n <= 0 {
				return nil, nil, fmt.Errorf("raster: truncated cell list")
			}
			data = data[n:]
			pos := prev + d
			if pos > maxPos || (!first && d == 0) {
				return nil, nil, fmt.Errorf("raster: invalid cell position %d at level %d", pos, level)
			}
			first = false
			prev = pos
			ids = append(ids, sfc.FromPosLevel(pos, level))
		}
	}
	slices.Sort(ids)
	return ids, data, nil
}
