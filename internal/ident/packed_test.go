package ident

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
)

// uvarintOracle and decodePathOracle are the decoder as it stood before
// identifiers were held packed — it built a fresh Path per call — kept
// verbatim as the reference DecodePacked and AppendPath are held to.
func uvarintOracle(buf []byte, off int, what string) (uint64, int, error) {
	v, n := binary.Uvarint(buf[off:])
	if n <= 0 || n > 1 && buf[off+n-1] == 0 {
		return 0, 0, fmt.Errorf("ident: truncated or non-minimal %s", what)
	}
	return v, off + n, nil
}

func decodePathOracle(buf []byte) (Path, int, error) {
	n, off, err := uvarintOracle(buf, 0, "path length")
	if err != nil {
		return nil, 0, err
	}
	if n > MaxPathLen || n > 8*uint64(len(buf)-off) {
		return nil, 0, fmt.Errorf("ident: path length %d exceeds limit or buffer", n)
	}
	bits := buf[off : off+int(n+7)/8]
	if n&7 != 0 && bits[len(bits)-1]>>(n&7) != 0 {
		return nil, 0, fmt.Errorf("ident: non-zero pad bits after %d path elements", n)
	}
	k, off, err := uvarintOracle(buf, off+len(bits), "mini count")
	if err != nil {
		return nil, 0, err
	}
	if k > n {
		return nil, 0, fmt.Errorf("ident: %d mini elements in a path of %d", k, n)
	}
	p := make(Path, n)
	for i := range p {
		p[i].Bit, p[i].Kind = bits[i>>3]>>(i&7)&1, Major
	}
	next := uint64(0)
	for ; k > 0; k-- {
		var g, c, s uint64
		if g, off, err = uvarintOracle(buf, off, "mini entry"); err != nil {
			return nil, 0, err
		}
		if g>>1 >= n-next { // also next == n: no element left to hold it
			return nil, 0, fmt.Errorf("ident: mini element beyond path length %d", n)
		}
		e := &p[next+g>>1]
		next += g>>1 + 1
		e.Kind = Mini
		if g&1 == 0 {
			continue
		}
		if c, off, err = uvarintOracle(buf, off, "counter"); err != nil {
			return nil, 0, err
		}
		if s, off, err = uvarintOracle(buf, off, "site"); err != nil {
			return nil, 0, err
		}
		if c > 1<<32-1 || SiteID(s) > MaxSiteID || c|s == 0 {
			return nil, 0, fmt.Errorf("ident: disambiguator (%d, %d) out of range", c, s)
		}
		e.Dis = Dis{Counter: uint32(c), Site: SiteID(s)}
	}
	return p, off, nil
}

// checkPacked holds every Packed method to the Path method of the same
// name, for a k known to encode p.
func checkPacked(t *testing.T, k Packed, p Path) {
	t.Helper()
	if got := Pack(p); got != k {
		t.Fatalf("Pack(%v) = %x, want %x", p, got.s, k.s)
	}
	stale := Path{M(1, Dis{Counter: 9, Site: 9}), M(1, Dis{Counter: 9, Site: 9})} // a scratch with a past in it
	if got := k.AppendPath(stale[:1]); !got[1:].Equal(p) || got[0] != stale[0] {
		t.Fatalf("%x unpacks to %v after %v, want %v", k.s, got[1:], got[:1], p)
	}
	if got := k.AppendPath(nil); !got.Equal(p) || Pack(got) != k {
		t.Fatalf("%x unpacks to %v, want %v", k.s, got, p)
	}
	if k.Len() != p.Len() || k.String() != p.String() || !bytes.Equal(k.AppendBinary([]byte{7}), p.AppendBinary([]byte{7})) {
		t.Fatalf("%v: Len %d, String %s, AppendBinary %x", p, k.Len(), k, k.AppendBinary(nil))
	}
	for _, c := range []Cost{PaperCost(SDIS), PaperCost(UDIS), CompactCost()} {
		if k.Bits(c) != p.Bits(c) {
			t.Fatalf("%v: Bits(%+v) = %d packed, %d as a path", p, c, k.Bits(c), p.Bits(c))
		}
	}
	if k.IsAtom() != (p.Validate() == nil) || k.IsAtom() == (p.ValidateStructural() == nil) {
		t.Fatalf("%v: IsAtom %v packed; Validate %v, ValidateStructural %v as a path", p, k.IsAtom(), p.Validate(), p.ValidateStructural())
	}
}

func TestPackedLayout(t *testing.T) {
	for _, s := range layoutSamples {
		data, _ := hex.DecodeString(s.hex)
		checkPacked(t, Packed{string(data)}, MustParsePath(s.path))
	}
	if root := Pack(Path{}); root.s != "\x00\x00" || Pack(nil) != root || root.IsAtom() {
		t.Errorf("the root packs to %x", root.s)
	}
}

// TestPackedRefusesWhatIsNoEncoding: the zero Packed, the one value not
// made by Pack or DecodePacked, is no identifier — neither an atom nor the
// root — and reads as an empty path.
func TestPackedRefusesWhatIsNoEncoding(t *testing.T) {
	var k Packed
	if k.IsAtom() || k == Pack(nil) {
		t.Errorf("the zero Packed passes for an identifier")
	}
	if n := k.Len(); n != 0 || len(k.AppendPath(nil)) != 0 || k.Bits(PaperCost(UDIS)) != 0 {
		t.Errorf("the zero Packed has %d elements", n)
	}
}

// TestPackedAllocs: holding an identifier costs the string and nothing
// else, and expanding one into a scratch that has the room costs nothing.
func TestPackedAllocs(t *testing.T) {
	p := MustParsePath("[0101010101(1:c4294967295s281474976710655)10(0:s3)]")
	data := p.AppendBinary(nil)
	k := Pack(p)
	scratch := make(Path, 0, len(p))
	for name, tc := range map[string]struct {
		want float64
		fn   func()
	}{
		"Pack":         {1, func() { k = Pack(p) }},
		"DecodePacked": {1, func() { k, _, _ = DecodePacked(data) }},
		"AppendPath":   {0, func() { scratch = k.AppendPath(scratch[:0]) }},
		"IsAtom":       {0, func() { _ = k.IsAtom() }},
		"Bits":         {0, func() { _ = k.Bits(PaperCost(UDIS)) }},
	} {
		if got := testing.AllocsPerRun(200, tc.fn); got != tc.want {
			t.Errorf("%s: %.1f allocs/op, want %.0f", name, got, tc.want)
		}
	}
}

// FuzzPacked holds the two-form identifier to the one-form decoder it
// replaced. DecodePacked accepts exactly what the old DecodePath accepted,
// consumes the same bytes and refuses with the same message; what it
// accepts unpacks to the path the old decoder built, and every Packed
// method agrees with the Path method of its name (IsAtom with Validate).
// The other way round, every valid path — built from the same input —
// survives Pack and AppendPath.
func FuzzPacked(f *testing.F) {
	for _, s := range layoutSamples {
		data, _ := hex.DecodeString(s.hex)
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{0x06})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1, 0x87, 0xff})
	f.Add([]byte{4, 0, 5, 1, 4})
	f.Add(bytes.Repeat([]byte{1}, 130))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})       // a ten-byte length
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02})       // one that overflows
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}) // eleven bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantN, wantErr := decodePathOracle(data)
		k, n, err := DecodePacked(data)
		switch {
		case (err == nil) != (wantErr == nil) || n != wantN:
			t.Fatalf("%x: DecodePacked %d bytes, %v; the old decoder %d bytes, %v", data, n, err, wantN, wantErr)
		case err != nil:
			if err.Error() != wantErr.Error() || k != (Packed{}) {
				t.Fatalf("%x: refused with %q (and %x), the old decoder with %q", data, err, k.s, wantErr)
			}
		default:
			if k.s != string(data[:n]) {
				t.Fatalf("%x: DecodePacked kept %x", data[:n], k.s)
			}
			checkPacked(t, k, want)
		}
		if p := pathFromBytes(data); len(p) <= MaxPathLen {
			checkPacked(t, Pack(p), p)
		}
	})
}
