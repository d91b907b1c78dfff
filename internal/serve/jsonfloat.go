package serve

import (
	"math"
	"math/bits"
	"strconv"
)

// appendJSONFloat appends f the way encoding/json writes a float64, or
// null when f is not finite. appendFloat32JSON takes nearly every widened
// float32 sample, which is what the files hold; the rest go to strconv.
func appendJSONFloat(b []byte, f float64) []byte {
	if out, ok := appendFloat32JSON(b, f); ok {
		return out
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9, as encoding/json writes it.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// pow5 holds 5^k exactly for the scales appendFloat32JSON uses.
var pow5 = func() (t [23]uint64) {
	t[0] = 1
	for k := 1; k < len(t); k++ {
		t[k] = 5 * t[k-1]
	}
	return t
}()

// digitPairs spells 00 to 99, two bytes each.
var digitPairs = func() (t [200]byte) {
	for i := range 100 {
		t[2*i], t[2*i+1] = byte('0'+i/10), byte('0'+i%10)
	}
	return t
}()

// appendFloat32JSON appends the bytes appendJSONFloat writes for f when f
// is a widened float32 ±m·2^q (2^23 < m < 2^24) with 1e-6 ≤ |f| < 2^30, and
// otherwise appends nothing and reports false.
//
// strconv's shortest digits are the shortest decimal in f's float64
// rounding interval f ± ulp/2, and of those the nearest to f, ties to
// even. The interval is closed: f's float64 significand m·2^29 is even, so
// a decimal on its edge parses back to f. Scaled by 10^k with
// k = ⌈(29−q)·log₁₀2⌉, the interval is 10^k·ulp ∈ [1, 10) wide, so it holds
// at most one multiple of ten, which is then the shortest decimal. Without
// one, every integer in it has the same length, and the nearest is 10^k·f
// rounded half to even, inside because the width is at least 1. (The
// scaled edges are odd multiples of 2^(q+k−30), q+k ≤ 13, so no integer
// ever lies on one.) Since 10^k·f = m·5^k·2^(q+k) with k ≤ 22, one
// 64×64-bit product holds it exactly. A power-of-two m has a lower
// neighbour half as far away as its upper one, so its interval is lopsided
// and it goes to strconv, with subnormals, non-finite values, values with
// float64 precision and those the range leaves out.
func appendFloat32JSON(b []byte, f float64) ([]byte, bool) {
	u := math.Float64bits(f)
	abs := math.Abs(f)
	if u&(1<<29-1) != 0 || u&(1<<52-1) == 0 || !(abs >= 1e-6 && abs < 1<<30) {
		return b, false
	}
	m := (u&(1<<52-1) | 1<<52) >> 29
	q := int(u>>52&0x7ff) - 1046 // f = ±m·2^q, −43 ≤ q ≤ 6
	k := (29-q)*78913>>18 + 1    // 7 ≤ k ≤ 22
	// In units of 2^−sh, sh = 30−q−k ∈ [17, 51], 10^k·f is m·5^k·2^30 and
	// the interval's half-width is 5^k.
	sh := uint(30 - q - k)
	hi, lo := bits.Mul64(m, pow5[k])
	hi, lo = hi<<30|lo>>34, lo<<30 // m·5^k·2^30 < 2^106
	n := hi<<(64-sh) | lo>>sh      // ⌊10^k·f⌋ < 10^17
	frac, one, half := lo&(1<<sh-1), uint64(1)<<sh, pow5[k]
	// The choice is a coin toss on real data, so it is made without branches.
	r := n % 10
	var up uint64
	if frac+(n&1) > one>>1 {
		up = 1 // half to even
	}
	d := n + up
	if (10-r)*one-frac <= half {
		d = n + 10 - r
	}
	if r*one+frac <= half {
		d = n - r
	}

	// d < 10^17: seventeen digits, leading zeros included, end at buf[26].
	var buf [40]byte
	const end = 26
	upper := d / 1e8
	put8Digits(buf[end-8:end], d-upper*1e8)
	top := upper / 1e8
	put8Digits(buf[end-16:end-8], upper-top*1e8)
	buf[end-17] = byte('0' + top)
	i, j := end-17, end
	for buf[i] == '0' {
		i++
	}
	for buf[j-1] == '0' {
		j--
		k--
	}
	// The value is buf[i:j]·10^−k; point is how many digits precede the '.'.
	switch point := j - i - k; {
	case point <= 0:
		for ; point < 0; point++ {
			i--
			buf[i] = '0'
		}
		i -= 2
		buf[i], buf[i+1] = '0', '.'
	case point >= j-i:
		for ; k < 0; k++ {
			buf[j] = '0'
			j++
		}
	default:
		copy(buf[i-1:], buf[i:i+point])
		i--
		buf[i+point] = '.'
	}
	if u>>63 != 0 {
		i--
		buf[i] = '-'
	}
	return append(b, buf[i:j]...), true
}

// put8Digits writes v < 10^8 as eight digits into dst.
func put8Digits(dst []byte, v uint64) {
	_ = dst[7]
	hi, lo := v/10000, v%10000
	a, c := 2*(hi/100), 2*(lo/100)
	bb, d := 2*(hi%100), 2*(lo%100)
	dst[0], dst[1], dst[2], dst[3] = digitPairs[a], digitPairs[a+1], digitPairs[bb], digitPairs[bb+1]
	dst[4], dst[5], dst[6], dst[7] = digitPairs[c], digitPairs[c+1], digitPairs[d], digitPairs[d+1]
}
