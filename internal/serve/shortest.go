package serve

import (
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// This file is the float64 formatter behind every answer's values: the
// shortest decimal that reads back as the same float, laid out as
// encoding/json writes it. The digits come from Giulietti's Schubfach ("The
// Schubfach way to render doubles", 2020), which finds the same digits as
// the Ryū search strconv runs (Adams, PLDI 2018), with three 64×128-bit
// products and no loop. FuzzAppendFloatMatchesStrconv holds it to strconv.

// pow10Min and pow10Max bound the powers of ten shortest can ask for:
// 10^-k for k = floor(log10(2^q)) over every float64 binary exponent q.
const pow10Min, pow10Max = -292, 326

// pow10 holds, for j in [pow10Min, pow10Max], 10^j scaled into [2^127, 2^128)
// and overestimated by less than one: floor(10^j · 2^(127−floor(log2 10^j)))
// + 1, high word first. Schubfach's round-to-odd products decide every
// comparison correctly with this overestimate, the exact powers included.
var pow10 = pow10Table()

func pow10Table() *[pow10Max - pow10Min + 1][2]uint64 {
	var t [pow10Max - pow10Min + 1][2]uint64
	one, ten, mask := big.NewInt(1), big.NewInt(10), new(big.Int).SetUint64(math.MaxUint64)
	p, g, w := big.NewInt(1), new(big.Int), new(big.Int)
	put := func(j int) {
		g.Add(g, one)
		t[j-pow10Min][0] = w.Rsh(g, 64).Uint64()
		t[j-pow10Min][1] = w.And(g, mask).Uint64()
	}
	for m := 0; m <= pow10Max; m++ { // p = 10^m
		if sh := 128 - p.BitLen(); sh >= 0 {
			g.Lsh(p, uint(sh))
		} else {
			g.Rsh(p, uint(-sh))
		}
		put(m)
		if m > 0 && -m >= pow10Min {
			// 2^(b-1) < 10^m < 2^b, so floor(log2 10^-m) = -b.
			g.Quo(g.Lsh(one, uint(127+p.BitLen())), p)
			put(-m)
		}
		p.Mul(p, ten)
	}
	return &t
}

// roundToOdd returns floor(g·cp / 2^128), its low bit set when the dropped
// fraction is not zero. The fraction of an exact integer, carried by g's
// overestimate, stays under 2^-63, so only larger ones count.
func roundToOdd(g *[2]uint64, cp uint64) uint64 {
	x, _ := bits.Mul64(g[1], cp)
	hi, lo := bits.Mul64(g[0], cp)
	lo, carry := bits.Add64(lo, x, 0)
	hi += carry
	if lo > 1 {
		hi |= 1
	}
	return hi
}

// shortest returns d·10^e, the shortest decimal that rounds to the positive
// finite float64 with IEEE bits b and, among those as short, the nearest to
// it, ties to even d. d may end in zeros.
func shortest(b uint64) (d uint64, e int) {
	frac, exp := b&(1<<52-1), int(b>>52)
	c, q := frac, -1074
	if exp != 0 {
		c, q = frac|1<<52, exp-1075
		if -52 <= q && q <= 0 && c&(1<<-q-1) == 0 {
			return c >> -q, 0 // an integer below 2^53
		}
	}
	// The rounding interval is [cbl, cbr]·2^(q-2) around cb·2^(q-2), open at
	// an odd c; at a power of two the float below is closer than the one
	// above, so the interval's lower half is half as wide.
	cb := c << 2
	cbl, cbr := cb-2, cb+2
	k := q * 1262611 >> 22 // floor(log10(2^q))
	if frac == 0 && exp > 1 {
		cbl++
		k = (q*1262611 - 524031) >> 22 // floor(log10(3/4 · 2^q))
	}
	h := q + (-k*1741647)>>19 + 1 // q + floor(log2(10^-k)) + 1, in [1, 4]
	g := &pow10[-k-pow10Min]
	vbl, vb, vbr := roundToOdd(g, cbl<<h), roundToOdd(g, cb<<h), roundToOdd(g, cbr<<h)
	odd := c & 1
	lower, upper := vbl+odd, vbr-odd

	s := vb >> 2 // vb is v·10^-k in quarters
	if s >= 10 {
		// One digit fewer: at most one of the multiples of ten around s lies
		// in the interval.
		sp := s / 10
		if in := lower <= 40*sp; in != (40*sp+40 <= upper) {
			if !in {
				sp++
			}
			return sp, k + 1
		}
	}
	if in := lower <= 4*s; in != (4*s+4 <= upper) {
		if !in {
			s++
		}
		return s, k
	}
	if mid := 4*s + 2; vb > mid || vb == mid && s&1 != 0 {
		s++
	}
	return s, k
}

// digitPairs is "00" through "99", two digits per index.
const digitPairs = "00010203040506070809" + "10111213141516171819" +
	"20212223242526272829" + "30313233343536373839" + "40414243444546474849" +
	"50515253545556575859" + "60616263646566676869" + "70717273747576777879" +
	"80818283848586878889" + "90919293949596979899"

// put8 writes v < 10^8 as eight digits, leading zeros included.
func put8(b *[8]byte, v uint32) {
	hi, lo := v/10000, v%10000
	p0, p1, p2, p3 := hi/100*2, hi%100*2, lo/100*2, lo%100*2
	b[0], b[1], b[2], b[3] = digitPairs[p0], digitPairs[p0+1], digitPairs[p1], digitPairs[p1+1]
	b[4], b[5], b[6], b[7] = digitPairs[p2], digitPairs[p2+1], digitPairs[p3], digitPairs[p3+1]
}

// appendFloat appends a finite v as encoding/json writes a float64: the
// shortest round-trip digits, exponent form below 1e-6 and from 1e21 up,
// with e-7 rather than strconv's e-07.
//
//distbound:noalloc
func appendFloat(b []byte, v float64) []byte {
	u := math.Float64bits(v)
	if u>>63 != 0 {
		b = append(b, '-')
		u &^= 1 << 63
	}
	if u == 0 {
		b = append(b, '0')
		return b
	}
	d, e := shortest(u)
	// d < 10^17 (c < 2^53 and 2^q < 10^(k+2)): one digit, then two groups
	// of eight, each split into independent pairs.
	var buf [17]byte
	hi := d / 1e8
	buf[0] = byte('0' + hi/1e8)
	put8((*[8]byte)(buf[1:9]), uint32(hi%1e8))
	put8((*[8]byte)(buf[9:]), uint32(d%1e8))
	i, n := 0, len(buf)
	for buf[i] == '0' {
		i++
	}
	for buf[n-1] == '0' {
		n--
		e++
	}
	digits := buf[i:n]
	x := len(digits) - 1 + e // v = d.ddd · 10^x
	if abs := math.Float64frombits(u); abs < 1e-6 || abs >= 1e21 {
		b = append(b, digits[0])
		if len(digits) > 1 {
			b = append(b, '.')
			b = append(b, digits[1:]...)
		}
		if x < 0 {
			b = append(b, "e-"...)
			x = -x
		} else {
			b = append(b, "e+"...)
		}
		b = strconv.AppendInt(b, int64(x), 10)
		return b
	}
	switch {
	case x < 0: // 0.000ddd
		b = append(b, "0."...)
		for ; x < -1; x++ {
			b = append(b, '0')
		}
		b = append(b, digits...)
	case x >= len(digits)-1: // ddd000
		b = append(b, digits...)
		for ; x >= len(digits); x-- {
			b = append(b, '0')
		}
	default: // dd.ddd
		b = append(b, digits[:x+1]...)
		b = append(b, '.')
		b = append(b, digits[x+1:]...)
	}
	return b
}
