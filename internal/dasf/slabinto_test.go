package dasf

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// writeLayouts writes the same array in every layout × dtype the reader
// decodes and returns the paths.
func writeLayouts(t *testing.T, a *Array2D) map[string]string {
	t.Helper()
	dir := t.TempDir()
	paths := map[string]string{}
	for name, w := range map[string]func(path string) error{
		"raw-f32": func(p string) error { return WriteData(p, testMeta(), nil, a, Float32) },
		"raw-f64": func(p string) error { return WriteData(p, testMeta(), nil, a, Float64) },
		"zip-f32": func(p string) error { return WriteDataCompressed(p, testMeta(), nil, a, Float32) },
		"zip-f64": func(p string) error { return WriteDataCompressed(p, testMeta(), nil, a, Float64) },
	} {
		paths[name] = filepath.Join(dir, name+".dasf")
		if err := w(paths[name]); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// TestReadSlabIntoFillsExactlyItsBand: for random windows over every layout,
// decoding into a band of a wider, sentinel-filled destination overwrites
// every cell of the band with ReadSlab's values (so nothing of an earlier
// attempt could survive a successful one), leaves every cell outside it
// alone, and issues the same physical requests.
func TestReadSlabIntoFillsExactlyItsBand(t *testing.T) {
	const nch, nt = 9, 40
	for name, path := range writeLayouts(t, smoothArray(nch, nt)) {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 40; trial++ {
			chLo := rng.Intn(nch)
			chHi := chLo + 1 + rng.Intn(nch-chLo)
			tLo := rng.Intn(nt)
			tHi := tLo + 1 + rng.Intn(nt-tLo)
			if trial%4 == 0 {
				tLo, tHi = 0, nt // the one-request path
			}
			ra, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ra.ReadSlab(chLo, chHi, tLo, tHi)
			ra.Close()
			if err != nil {
				t.Fatal(err)
			}

			width := tHi - tLo
			stride := width + rng.Intn(5)
			off := rng.Intn(4)
			sentinel := math.Float64frombits(0x7ff8dead0000beef)
			dst := make([]float64, off+(chHi-chLo)*stride+3)
			for i := range dst {
				dst[i] = sentinel
			}
			rb, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			err = rb.ReadSlabInto(dst[off:], stride, chLo, chHi, tLo, tHi)
			rb.Close()
			if err != nil {
				t.Fatalf("%s [%d:%d)x[%d:%d): %v", name, chLo, chHi, tLo, tHi, err)
			}
			if ra.Stats() != rb.Stats() {
				t.Fatalf("%s: ReadSlabInto issued %+v, ReadSlab %+v", name, rb.Stats(), ra.Stats())
			}
			for i, got := range dst {
				c, k := (i-off)/stride, (i-off)%stride
				inBand := i >= off && c < chHi-chLo && k < width
				wantBits := math.Float64bits(sentinel)
				if inBand {
					wantBits = math.Float64bits(want.At(c, k))
				}
				if math.Float64bits(got) != wantBits {
					t.Fatalf("%s [%d:%d)x[%d:%d) stride %d: dst[%d] (band=%v) = %x, want %x",
						name, chLo, chHi, tLo, tHi, stride, i, inBand, math.Float64bits(got), wantBits)
				}
			}
		}
	}
}

// TestReadSlabIntoChecksDestinationBeforeReading: a destination that cannot
// hold the slab is refused without a single physical read.
func TestReadSlabIntoChecksDestinationBeforeReading(t *testing.T) {
	const nch, nt = 4, 10
	for name, path := range writeLayouts(t, testArray(nch, nt)) {
		r, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		opened := r.Stats()
		for _, tc := range []struct {
			what       string
			n, stride  int
			chLo, chHi int
			tLo, tHi   int
		}{
			{"stride below width", nch * nt, nt - 1, 0, nch, 0, nt},
			{"short by one", (nch-1)*nt + nt - 1, nt, 0, nch, 0, nt},
			{"last row short at a wide stride", 2*12 + 4, 12, 0, 3, 2, 7},
			{"empty", 0, nt, 0, 1, 0, nt},
			{"window outside the file", nch * nt, nt, 0, nch + 1, 0, nt},
		} {
			if err := r.ReadSlabInto(make([]float64, tc.n), tc.stride, tc.chLo, tc.chHi, tc.tLo, tc.tHi); err == nil {
				t.Errorf("%s: %s accepted", name, tc.what)
			}
		}
		if r.Stats() != opened {
			t.Errorf("%s: a refused destination still read: %+v → %+v", name, opened, r.Stats())
		}
		// The smallest destination that does hold it is accepted.
		if err := r.ReadSlabInto(make([]float64, 2*12+5), 12, 0, 3, 2, 7); err != nil {
			t.Errorf("%s: exact-fit destination refused: %v", name, err)
		}
		r.Close()
	}
}

// TestReadSlabIntoFailsMidSlab: a chunked file whose middle chunk is damaged
// decodes its first rows and then fails — the half-filled band a degrading
// caller has to mask in full. The error is the corruption, and ReadSlab, the
// same code, reports it too.
func TestReadSlabIntoFailsMidSlab(t *testing.T) {
	const nch, nt = 6, 64
	path := filepath.Join(t.TempDir(), "z.dasf")
	if err := WriteDataCompressed(path, testMeta(), nil, smoothArray(nch, nt), Float64); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := r.loadChunkIndex()
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := chunks[3]
	for i := 0; i < bad.clen; i++ {
		raw[int(bad.off)+i] = 0xff
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	dst := make([]float64, nch*nt)
	for i := range dst {
		dst[i] = -1
	}
	err = r.ReadSlabInto(dst, nt, 0, nch, 0, nt)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if dst[0] == -1 || dst[5*nt] != -1 {
		t.Fatalf("expected rows before the bad chunk decoded and rows after it untouched; dst[0]=%v dst[5*nt]=%v", dst[0], dst[5*nt])
	}
	if _, err := r.ReadSlab(0, nch, 0, nt); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadSlab err = %v, want ErrCorrupt", err)
	}
}
