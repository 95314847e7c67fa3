package decimal

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"regexp"
	"strconv"
	"testing"
)

// jsonNumber is the grammar Parse reads, as a regular expression.
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`)

// check fails t unless Parse reads the longest JSON-number prefix of b
// and accepts it exactly when strconv.ParseFloat does, with the same
// bits.
func check(t testing.TB, b []byte) {
	t.Helper()
	v, n, ok := Parse(b)
	want := 0
	if loc := jsonNumber.FindIndex(b); loc != nil {
		want = loc[1]
	}
	if n != want {
		t.Fatalf("Parse(%q) read %d bytes, want %d", b, n, want)
	}
	if n == 0 {
		if ok {
			t.Fatalf("Parse(%q) accepted no number", b)
		}
		return
	}
	ref, err := strconv.ParseFloat(string(b[:n]), 64)
	if ok != (err == nil) {
		t.Fatalf("Parse(%q) ok %v, strconv.ParseFloat error %v", b[:n], ok, err)
	}
	if ok && math.Float64bits(v) != math.Float64bits(ref) {
		t.Fatalf("Parse(%q) = %v (%#x), strconv.ParseFloat %v (%#x)",
			b[:n], v, math.Float64bits(v), ref, math.Float64bits(ref))
	}
}

// edgeCases are the numbers each route's edge lies between: signed
// zeros, 2^53 ± 1 and the halfway cases past it, 19 and 20 digits,
// subnormals, the ends of float64's range, and text Parse reads only a
// prefix of.
var edgeCases = []string{
	"0", "-0", "0.0", "-0.000", "0.000000000000000000000000000000", "0e99999", "-0e-5",
	"1", "-1", "0.1", "-0.5", "1.5", "123.456e-7", "1E5", "1e+05", "1e-05", "2.5E-3",
	"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740994",
	"9007199254740995", "-9007199254740993", "18014398509481986", "18014398509481990",
	"900719925474099.3", "9007199254740993e-3", "9007199254740993e3",
	"1234567890123456789", "9999999999999999999", "1844674407370955161",
	"12345678901234567890", "18446744073709551615", "18446744073709551616",
	"0.12345678901234567890", "1.00000000000000000000", "0.00000000000000000001234567890123456789",
	"5e-324", "4.9406564584124654e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
	"1e-324", "2.2250738585072011e-308", "2.2250738585072014e-308", "1e-320",
	"1e308", "1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
	"1e309", "-1e309", "1e-400", "-1e-400", "1e99999999999999999999", "1e-99999999999999999999",
	"", "-", "+1", ".5", "-.5", "01", "-01.5", "1.", "1.e5", "1e", "1e+", "1E-x", "0x10",
	"Inf", "-Inf", "NaN", "1_000", "1,2", "1]", "7 ", "- 1", "--1", "1.5.5", "1e5e5",
}

func TestParseMatchesStrconv(t *testing.T) {
	for _, s := range edgeCases {
		check(t, []byte(s))
	}
	// The exponents around each route's bounds: Clinger's ±22, the
	// table's ends, for mantissas on either side of 2^53 and of 19 digits.
	for _, m := range []uint64{1, 3, 7, 4503599627370497, 9007199254740991, 9007199254740993,
		12345678901234567, 1234567890123456789, 9999999999999999999} {
		for _, e := range []int{-23, -22, -21, 21, 22, 23,
			minExp10 - 1, minExp10, minExp10 + 1, maxExp10 - 1, maxExp10, maxExp10 + 1} {
			check(t, []byte(fmt.Sprintf("%de%d", m, e)))
			check(t, []byte(fmt.Sprintf("-%de%d", m, e)))
		}
	}
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	for i := 0; i < 20000; i++ {
		// Any finite double, and doubles of the magnitudes clients send.
		x := math.Float64frombits(rng.Uint64())
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		y := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		for _, v := range []float64{x, y} {
			check(t, strconv.AppendFloat(buf[:0], v, 'g', -1, 64))
			check(t, strconv.AppendFloat(buf[:0], v, 'e', rng.Intn(20), 64))
			check(t, strconv.AppendFloat(buf[:0], v, 'g', 1+rng.Intn(20), 64))
			if math.Abs(v) < 1e30 {
				check(t, strconv.AppendFloat(buf[:0], v, 'f', rng.Intn(25), 64))
			}
		}
		// Mantissas just past 2^53 at Clinger's exponents, where a
		// rounded mantissa would round twice.
		m := uint64(1)<<53 + uint64(rng.Int63n(1<<53))
		check(t, []byte(fmt.Sprintf("%de%d", m, rng.Intn(45)-22)))
		// Exact halfway cases: an odd 54-bit integer times 2^j, or over
		// 2^j with the power of five moved into the mantissa.
		h := uint64(1)<<53 | uint64(rng.Int63n(1<<53)) | 1
		check(t, strconv.AppendUint(buf[:0], h<<rng.Intn(11), 10))
		j := rng.Intn(4)
		check(t, []byte(fmt.Sprintf("%de-%d", h*uint64(math.Pow(5, float64(j))), j)))
		// Random digit strings of 1 to 21 digits around the table.
		d := strconv.AppendUint(buf[:0], rng.Uint64()>>rng.Intn(64), 10)
		if rng.Intn(2) == 0 {
			d = append(d, '0'+byte(rng.Intn(10)), '0'+byte(rng.Intn(10)))
		}
		check(t, fmt.Appendf(nil, "%s.%se%d", d[:1], d[1:], rng.Intn(2*maxExp10+20)-maxExp10-10))
	}
}

func FuzzParse(f *testing.F) {
	for _, s := range edgeCases {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) { check(t, b) })
}

// TestPowersMatchDefinition recomputes every row of the table from its
// definition with math/big.
func TestPowersMatchDefinition(t *testing.T) {
	for e := minExp10; e <= maxExp10; e++ {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		l := uint(p.BitLen()) // 2^(l-1) ≤ 10^|e| < 2^l
		m := new(big.Int)
		if e >= 0 {
			m.Rsh(m.Lsh(p, 128), l) // 10^e·2^(128-l)
		} else {
			m.Quo(m.Lsh(big.NewInt(1), 127+l), p) // 2^(127+l)/10^-e
		}
		var buf [16]byte
		m.FillBytes(buf[:])
		want := [2]uint64{binary.BigEndian.Uint64(buf[8:]), binary.BigEndian.Uint64(buf[:8])}
		if got := powers[e-minExp10]; got != want {
			t.Errorf("10^%d: row %#x, want %#x", e, got, want)
		}
	}
}
