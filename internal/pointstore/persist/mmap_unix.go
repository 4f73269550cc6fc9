//go:build (linux || darwin) && (amd64 || arm64)

// The zero-copy snapshot path: mmap the file read-only and alias the column
// slices straight into the mapping. Restricted to little-endian platforms
// with a known mmap — everywhere else Open falls back to a full heap load
// through decodeColumns, which is always correct.
package persist

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"

	"distbound/internal/geom"
	"distbound/internal/pointstore"
)

const mmapSupported = true

// mmapPin owns one read-only mapping. The pointstore keeps the pin reachable
// from every Store whose columns alias the mapping, and the finalizer
// unmaps only once no snapshot can read through it anymore.
type mmapPin struct {
	data []byte
}

// mmapFile maps path read-only, returning the bytes and the pin that keeps
// them mapped.
func mmapFile(path string) ([]byte, any, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	if st.Size() <= 0 || st.Size() > int64(^uint(0)>>1) {
		return nil, nil, fmt.Errorf("persist: cannot map %d-byte snapshot", st.Size())
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, err
	}
	p := &mmapPin{data: data}
	runtime.SetFinalizer(p, func(p *mmapPin) {
		syscall.Munmap(p.data) //nolint:errcheck // unmapping a dead mapping
	})
	return data, p, nil
}

// aliasColumns builds the base columns as views into the mapped file — the
// sections were CRC-validated by parseSnapshot and sit at 8-aligned offsets,
// and the platform is little-endian, so the on-disk representation IS the
// in-memory one. A weighted store's zero-length sections become non-nil
// empty slices: nil-ness encodes weightlessness downstream.
func aliasColumns(data []byte, meta snapMeta, secs map[uint32]section) pointstore.BaseColumns {
	u64s := func(id uint32) []uint64 {
		s := secs[id]
		if s.size == 0 {
			return []uint64{}
		}
		return unsafe.Slice((*uint64)(unsafe.Pointer(&data[s.off])), s.size/8)
	}
	cols := pointstore.BaseColumns{Keys: u64s(secKeys), IDs: u64s(secIDs)}
	if s := secs[secPts]; s.size == 0 {
		cols.Pts = []geom.Point{}
	} else {
		cols.Pts = unsafe.Slice((*geom.Point)(unsafe.Pointer(&data[s.off])), s.size/16)
	}
	if meta.hasW {
		cols.Weights = []float64{}
		if s := secs[secWeights]; s.size > 0 {
			cols.Weights = unsafe.Slice((*float64)(unsafe.Pointer(&data[s.off])), s.size/8)
		}
	}
	return cols
}
