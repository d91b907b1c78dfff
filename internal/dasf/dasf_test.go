package dasf

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func testArray(channels, samples int) *Array2D {
	a := NewArray2D(channels, samples)
	for c := 0; c < channels; c++ {
		for t := 0; t < samples; t++ {
			a.Set(c, t, float64(c*1000+t))
		}
	}
	return a
}

func testMeta() Meta {
	return Meta{
		KeySamplingFrequency: I(500),
		KeySpatialResolution: F(2.0),
		KeyTimeStamp:         S("170620100545"),
		KeyNumberOfChannels:  I(8),
	}
}

func TestWriteReadRoundTripFloat64(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.dasf")
	want := testArray(8, 16)
	if err := WriteData(path, testMeta(), nil, want, Float64); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	info := r.Info()
	if info.Kind != KindData || info.NumChannels != 8 || info.NumSamples != 16 || info.DType != Float64 {
		t.Fatalf("info = %+v", info)
	}
	if got := info.Global[KeyTimeStamp].Str; got != "170620100545" {
		t.Errorf("timestamp = %q", got)
	}
	if got := info.Global[KeySamplingFrequency].Int; got != 500 {
		t.Errorf("sampling frequency = %d", got)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("data[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestFloat32RoundTripPrecision(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f32.dasf")
	want := NewArray2D(2, 4)
	vals := []float64{0, -1.5, 3.25, math.Pi, 1e10, -1e-10, 42, 0.1}
	copy(want.Data, vals)
	if err := WriteData(path, testMeta(), nil, want, Float32); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if got.Data[i] != float64(float32(v)) {
			t.Errorf("data[%d] = %v, want float32-rounded %v", i, got.Data[i], float64(float32(v)))
		}
	}
}

func TestReadSlab(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "slab.dasf")
	src := testArray(10, 20)
	if err := WriteData(path, testMeta(), nil, src, Float64); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := r.ReadSlab(3, 7, 5, 12)
	if err != nil {
		t.Fatal(err)
	}
	if got.Channels != 4 || got.Samples != 7 {
		t.Fatalf("slab shape %d×%d", got.Channels, got.Samples)
	}
	for c := 0; c < 4; c++ {
		for tt := 0; tt < 7; tt++ {
			want := src.At(c+3, tt+5)
			if got.At(c, tt) != want {
				t.Fatalf("slab(%d,%d) = %v, want %v", c, tt, got.At(c, tt), want)
			}
		}
	}
}

func TestReadSlabBounds(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "b.dasf")
	if err := WriteData(path, testMeta(), nil, testArray(4, 6), Float64); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, tc := range [][4]int{
		{-1, 2, 0, 6}, {0, 5, 0, 6}, {2, 2, 0, 6}, {0, 4, -1, 6}, {0, 4, 0, 7}, {0, 4, 3, 3},
	} {
		if _, err := r.ReadSlab(tc[0], tc[1], tc[2], tc[3]); err == nil {
			t.Errorf("slab %v should fail", tc)
		}
	}
}

func TestFullTimeRangeIsOneRead(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.dasf")
	if err := WriteData(path, testMeta(), nil, testArray(16, 32), Float64); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	before := r.Stats().Reads
	if _, err := r.ReadSlab(0, 16, 0, 32); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Reads - before; got != 1 {
		t.Errorf("full read used %d read calls, want 1", got)
	}
	before = r.Stats().Reads
	if _, err := r.ReadSlab(0, 16, 1, 32); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Reads - before; got != 16 {
		t.Errorf("partial-time read used %d read calls, want 16 (one per channel)", got)
	}
}

func TestPerChannelMeta(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pcm.dasf")
	pcm := make([]Meta, 3)
	for c := range pcm {
		pcm[c] = Meta{"Distance(m)": F(float64(c) * 2.0), "Object Path": S("/Measurement/" + string(rune('1'+c)))}
	}
	if err := WriteData(path, testMeta(), pcm, testArray(3, 5), Float64); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := r.PerChannelMeta()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d channel metas", len(got))
	}
	for c := range got {
		if got[c]["Distance(m)"].Float != float64(c)*2.0 {
			t.Errorf("channel %d distance = %v", c, got[c]["Distance(m)"])
		}
	}
	// A file without per-channel metadata returns nil.
	path2 := filepath.Join(dir, "nopcm.dasf")
	if err := WriteData(path2, testMeta(), nil, testArray(3, 5), Float64); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(path2)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if m, err := r2.PerChannelMeta(); err != nil || m != nil {
		t.Errorf("PerChannelMeta = %v, %v; want nil, nil", m, err)
	}
}

func TestVCARoundTrip(t *testing.T) {
	dir := t.TempDir()
	members := []Member{
		{Name: "m0.dasf", NumChannels: 8, NumSamples: 100, Timestamp: 170728224510},
		{Name: "m1.dasf", NumChannels: 8, NumSamples: 100, Timestamp: 170728224610},
		{Name: "m2.dasf", NumChannels: 8, NumSamples: 50, Timestamp: 170728224710},
	}
	path := filepath.Join(dir, "v.vca")
	if err := WriteVCA(path, testMeta(), Float32, members); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	info := r.Info()
	if info.Kind != KindVCA {
		t.Fatalf("kind = %v", info.Kind)
	}
	if info.NumChannels != 8 || info.NumSamples != 250 {
		t.Errorf("shape = %d×%d, want 8×250", info.NumChannels, info.NumSamples)
	}
	if len(info.Members) != 3 {
		t.Fatalf("members = %d", len(info.Members))
	}
	// Relative member names resolve against the VCA's directory.
	if want := filepath.Join(dir, "m1.dasf"); info.Members[1].Name != want {
		t.Errorf("member name = %q, want %q", info.Members[1].Name, want)
	}
	if info.Members[2].NumSamples != 50 || info.Members[0].Timestamp != 170728224510 {
		t.Errorf("member fields wrong: %+v", info.Members)
	}
	// Reading a slab from a VCA directly is an error (dass resolves members).
	if _, err := r.ReadSlab(0, 8, 0, 250); err == nil {
		t.Error("ReadSlab on VCA should fail")
	}
}

// TestVCALongMemberTable round-trips a VCA whose member table is several
// times the header probe: a day of per-minute files is well past it.
func TestVCALongMemberTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "long.vca")
	members := make([]Member, 1000)
	for i := range members {
		members[i] = Member{Name: fmt.Sprintf("westSac_%012d.dasf", 170728224510+i),
			NumChannels: 4, NumSamples: 10 + i%7, Timestamp: int64(170728224510 + i)}
	}
	if err := WriteVCA(path, testMeta(), Float64, members); err != nil {
		t.Fatal(err)
	}
	info, st, err := ReadInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Members) != len(members) {
		t.Fatalf("read %d members, wrote %d", len(info.Members), len(members))
	}
	for i, m := range info.Members {
		want := members[i]
		want.Name = filepath.Join(filepath.Dir(path), want.Name)
		if m != want {
			t.Fatalf("member %d = %+v, want %+v", i, m, want)
		}
	}
	if fi, err := os.Stat(path); err != nil || st.BytesRead != fi.Size() || st.Reads != 2 {
		t.Errorf("read %d bytes in %d reads of a %d-byte file; want all of it in 2", st.BytesRead, st.Reads, fi.Size())
	}
}

func TestVCAValidation(t *testing.T) {
	dir := t.TempDir()
	if err := WriteVCA(filepath.Join(dir, "x.vca"), nil, Float64, nil); err == nil {
		t.Error("empty member list should fail")
	}
	bad := []Member{
		{Name: "a", NumChannels: 8, NumSamples: 10},
		{Name: "b", NumChannels: 9, NumSamples: 10},
	}
	if err := WriteVCA(filepath.Join(dir, "y.vca"), nil, Float64, bad); err == nil {
		t.Error("mismatched channel counts should fail")
	}
}

func TestCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	cases := map[string][]byte{
		"empty":     {},
		"bad_magic": []byte("NOPE\x01\x00\x00\x00garbage"),
		"truncated": append([]byte("DASF\x01\x00\x00\x00"), 0xFF, 0xFF, 0xFF, 0x7F),
	}
	for name, content := range cases {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(p); err == nil {
			t.Errorf("%s: Open should fail", name)
		}
	}
	if _, err := Open(filepath.Join(dir, "missing.dasf")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestTruncatedArrayDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trunc.dasf")
	if err := WriteData(path, testMeta(), nil, testArray(8, 100), Float64); err != nil {
		t.Fatal(err)
	}
	// Chop off the tail of the array.
	st, _ := os.Stat(path)
	if err := os.Truncate(path, st.Size()-100); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "array needs") {
		t.Errorf("truncated array: err = %v", err)
	}
}

func TestWriteDataValidation(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "v.dasf")
	if err := WriteData(p, nil, nil, nil, Float64); err == nil {
		t.Error("nil array should fail")
	}
	bad := &Array2D{Channels: 2, Samples: 3, Data: make([]float64, 5)}
	if err := WriteData(p, nil, nil, bad, Float64); err == nil {
		t.Error("mismatched data length should fail")
	}
	if err := WriteData(p, nil, make([]Meta, 1), testArray(2, 2), Float64); err == nil {
		t.Error("wrong perChannel length should fail")
	}
}

func TestMetaRoundTripProperty(t *testing.T) {
	f := func(keys []string, ints []int64, floats []float64, strs []string) bool {
		m := Meta{}
		for i, k := range keys {
			if len(k) > 1000 {
				k = k[:1000]
			}
			switch i % 3 {
			case 0:
				if len(ints) > 0 {
					m[k] = I(ints[i%len(ints)])
				}
			case 1:
				if len(floats) > 0 {
					f := floats[i%len(floats)]
					if math.IsNaN(f) {
						f = 0 // NaN != NaN; store something comparable
					}
					m[k] = F(f)
				}
			default:
				if len(strs) > 0 {
					m[k] = S(strs[i%len(strs)])
				}
			}
		}
		enc := encodeMeta(m)
		dec, used, err := decodeMeta(enc)
		if err != nil || used != len(enc) || len(dec) != len(m) {
			return false
		}
		for k, v := range m {
			if dec[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeMetaRejectsGarbage(t *testing.T) {
	// Any prefix truncation of a valid encoding must error, not panic.
	m := Meta{"alpha": S("hello"), "beta": I(42), "gamma": F(2.5)}
	enc := encodeMeta(m)
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := decodeMeta(enc[:cut]); err == nil && cut < len(enc) {
			// Some prefixes may decode fewer entries and "succeed" only if
			// count was satisfied — with sorted keys the count is at the
			// front so every cut must fail.
			t.Errorf("cut=%d: decode succeeded on truncated input", cut)
		}
	}
}

func TestArray2DHelpers(t *testing.T) {
	a := NewArray2D(3, 4)
	a.Set(2, 3, 7.5)
	if a.At(2, 3) != 7.5 {
		t.Error("Set/At broken")
	}
	row := a.Row(2)
	if len(row) != 4 || row[3] != 7.5 {
		t.Error("Row broken")
	}
	cp := a.Clone()
	cp.Set(0, 0, -1)
	if a.At(0, 0) == -1 {
		t.Error("Clone shares storage")
	}
	if Float32.Size() != 4 || Float64.Size() != 8 {
		t.Error("DType.Size broken")
	}
	if KindData.String() != "data" || KindVCA.String() != "vca" {
		t.Error("Kind.String broken")
	}
	if S("x").String() != "x" || I(3).String() != "3" || F(1.5).String() != "1.5" {
		t.Error("Value.String broken")
	}
	m := Meta{"a": I(1)}
	c := m.Clone()
	c["a"] = I(2)
	if m["a"].Int != 1 {
		t.Error("Meta.Clone shares storage")
	}
}
