package ident

import (
	"bytes"
	"encoding/hex"
	"math"
	"runtime"
	"testing"
)

// layoutSamples pins the packed layout on the shapes it distinguishes: the
// root, an all-Major structural path, minis at depth 0 and n−1, a canonical
// disambiguator, a full-width (counter, 48-bit site) one, and a path whose
// bits spill into a second byte.
var layoutSamples = []struct {
	path string
	hex  string
}{
	{"[]", "0000"},
	{"[10]", "020100"},
	{"[(1:s1)]", "01010101" + "0001"},
	{"[(0:⊥)]", "01000100"},
	{"[(1:⊥)0(0:s2)]", "030102" + "00" + "03" + "0002"},
	{"[10(0:s25)]", "030101" + "05" + "0019"},
	{"[1110(0:c3s1)]", "050701" + "09" + "0301"},
	{"[0101010101(1:c4294967295s281474976710655)]", "0baa06" + "01" + "15" + "ffffffff0f" + "ffffffffffff3f"},
}

func TestPathLayout(t *testing.T) {
	for _, s := range layoutSamples {
		p := MustParsePath(s.path)
		if got := hex.EncodeToString(p.AppendBinary(nil)); got != s.hex {
			t.Errorf("%s encodes to %s, want %s", s.path, got, s.hex)
		}
		data, _ := hex.DecodeString(s.hex)
		q, n, err := DecodePath(append(data, 0xEE)) // a prefix decode stops at the path's end
		if err != nil || n != len(data) || !q.Equal(p) {
			t.Errorf("%s decodes to %v (%d bytes, %v), want %v", s.hex, q, n, err, p)
		}
	}
}

// TestDecodeRefusesSecondEncodings: every path has exactly one accepted
// encoding, so each way of spelling a path differently is an error.
func TestDecodeRefusesSecondEncodings(t *testing.T) {
	for name, h := range map[string]string{
		"non-zero pad bits":                   "020500",
		"pad bit 7 of a full-but-one byte":    "07" + "80" + "00",
		"non-minimal path length":             "8200" + "01" + "00",
		"non-minimal mini count":              "0201" + "8000",
		"non-minimal gap":                     "020101" + "8200",
		"non-minimal counter":                 "01010101" + "8000" + "01",
		"non-minimal site":                    "01010101" + "00" + "8100",
		"more minis than elements":            "010102" + "00" + "00",
		"mini at depth n":                     "020101" + "04",
		"second mini past the end":            "020102" + "02" + "00",
		"gap that overflows the depth":        "020101" + "feffffffffffffffff01",
		"canonical disambiguator spelled out": "01010101" + "0000",
		"counter beyond 32 bits":              "01010101" + "8080808010" + "01",
		"site beyond 48 bits":                 "01010101" + "00" + "80808080808040",
		"truncated bits":                      "09ff",
		"truncated mini count":                "0201",
		"truncated mini entry":                "020101",
		"truncated disambiguator":             "02010103" + "05",
	} {
		data, err := hex.DecodeString(h)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p, n, err := DecodePath(data); err == nil {
			t.Errorf("%s: %s decoded to %v (%d bytes)", name, h, p, n)
		}
	}
}

// hostileAllocCeiling bounds what a refused path may cost its receiver: the
// error value and nothing proportional to the length it claimed.
const hostileAllocCeiling = 1 << 10

// TestDecodeHostileLengths: a packed path lets one byte claim eight
// elements of 24 bytes each, so a claimed length is held against MaxPathLen
// and against the bytes actually present before anything is allocated.
func TestDecodeHostileLengths(t *testing.T) {
	overCap := append([]byte{0x81, 0x80, 0x04}, make([]byte, MaxPathLen/8+2)...) // n = MaxPathLen+1, bits present
	for name, data := range map[string][]byte{
		"length beyond MaxPathLen":       overCap,
		"length 2^62":                    {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40, 0xff},
		"length at the cap, no bits":     {0x80, 0x80, 0x04},
		"length 8x the bytes left, +1":   {0x11, 0xff, 0xff},
		"bits counted from the prefix":   {0x10, 0xff}, // 16 ≤ 8·len(buf) but only one byte follows the length
		"mini count 2^62":                {0x08, 0xff, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40},
		"mini count beyond the elements": {0x08, 0xff, 0x09, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	} {
		var err error
		got := leastAllocated(func() { _, _, err = DecodePath(data) })
		if err == nil {
			t.Errorf("%s: decoded a path", name)
		}
		if got > hostileAllocCeiling {
			t.Errorf("%s: refusing it allocated %d bytes, ceiling %d", name, got, hostileAllocCeiling)
		}
	}
	// The largest legal path decodes, at 24 bytes per element and no more.
	deepest := make(Path, MaxPathLen)
	for i := range deepest {
		deepest[i] = J(uint8(i) & 1)
	}
	deepest[MaxPathLen-1] = M(1, Dis{Site: 9})
	data := deepest.AppendBinary(nil)
	var (
		p   Path
		n   int
		err error
	)
	got := leastAllocated(func() { p, n, err = DecodePath(data) })
	if err != nil || n != len(data) || !p.Equal(deepest) {
		t.Fatalf("a path of MaxPathLen elements: %d bytes consumed of %d, %v", n, len(data), err)
	}
	if got > 25*MaxPathLen {
		t.Errorf("decoding %d elements allocated %d bytes", MaxPathLen, got)
	}
}

// leastAllocated is the fewest bytes one call of fn was seen to allocate
// over several calls. TotalAlloc is process-wide, and an allocation on
// another goroutine can only add to a delta, so the minimum is fn's own.
func leastAllocated(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// pathFromBytes builds a valid path from arbitrary bytes, one element per
// byte (plus up to two more for a site-generated disambiguator), so the
// fuzzer steers element kinds, mini positions and disambiguator widths.
func pathFromBytes(data []byte) Path {
	p := Path{}
	for i := 0; i < len(data); i++ {
		b := data[i]
		switch b >> 1 & 3 {
		case 0, 1:
			p = append(p, J(b&1))
		case 2:
			p = append(p, M(b&1, Canonical))
		default:
			d := Dis{Site: SiteID(b>>3) + 1}
			if b&0x80 != 0 {
				d.Site = MaxSiteID - SiteID(b>>3&7)
			}
			if i+1 < len(data) {
				i++
				d.Counter = uint32(data[i]) * 0x01010101 >> (data[i] & 31)
			}
			p = append(p, M(b&1, d))
		}
	}
	return p
}

// FuzzPathCodec states the codec's two properties. Canonical form: whatever
// DecodePath accepts re-encodes to exactly the bytes it consumed. Lossless:
// every valid path — here built from the same input — decodes back from its
// encoding to an equal path.
func FuzzPathCodec(f *testing.F) {
	for _, s := range layoutSamples {
		data, _ := hex.DecodeString(s.hex)
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{0x06})                               // a site mini at depth 0
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1, 0x87, 0xff}) // a 48-bit site mini at depth n−1
	f.Add([]byte{4, 0, 5, 1, 4})                      // canonical minis around majors
	f.Add(bytes.Repeat([]byte{1}, 130))               // all-Major, 17 bytes of bits
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, n, err := DecodePath(data); err == nil {
			if re := p.AppendBinary(nil); !bytes.Equal(re, data[:n]) {
				t.Fatalf("accepted %x as %v, which re-encodes to %x", data[:n], p, re)
			}
		}
		p := pathFromBytes(data)
		enc := p.AppendBinary(nil)
		q, n, err := DecodePath(enc)
		if err != nil || n != len(enc) || !q.Equal(p) {
			t.Fatalf("%v encodes to %x, which decodes to %v (%d bytes, %v)", p, enc, q, n, err)
		}
	})
}
