package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"dassa/internal/dasf"
	"dassa/internal/testutil/leakcheck"
)

// TestReadJSONMatchesEncodingJSON: for finite samples the /read row writer
// writes the bytes encoding/json writes for the whole response map, over
// random shapes and values from subnormal to past the exponent switch.
func TestReadJSONMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	special := []float64{0, math.Copysign(0, -1), 5e-324, -2.2e-308, 1e-7, -1e-6, 9.99e-7,
		1e20, 1e21, -1e21, 1.5e300, math.MaxFloat64, 123456789.125, 0.1}
	for trial := 0; trial < 50; trial++ {
		arr := dasf.NewArray2D(rng.Intn(5), rng.Intn(400))
		if trial == 0 {
			arr = dasf.NewArray2D(3, 0)
		}
		for i := range arr.Data {
			switch rng.Intn(4) {
			case 0:
				arr.Data[i] = special[rng.Intn(len(special))]
			case 1:
				arr.Data[i] = math.Float64frombits(rng.Uint64() &^ (0x7ff << 52)) // subnormal
			case 2:
				arr.Data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
			default:
				arr.Data[i] = math.Float64frombits(rng.Uint64())
				if math.IsNaN(arr.Data[i]) || math.IsInf(arr.Data[i], 0) {
					arr.Data[i] = -1.25
				}
			}
		}
		summary := func() map[string]any {
			return map[string]any{"num_channels": arr.Channels, "num_samples": arr.Samples,
				"io": map[string]int64{"opens": 1, "reads": 2}, "gaps": 0, "distributed": false}
		}
		want := summary()
		rows := make([][]float64, arr.Channels)
		for c := range rows {
			rows[c] = arr.Row(c)
		}
		want["data"] = rows
		ref := httptest.NewRecorder()
		writeJSON(ref, http.StatusOK, want)
		got := httptest.NewRecorder()
		writeReadJSON(got, summary(), arr)
		if !bytes.Equal(got.Body.Bytes(), ref.Body.Bytes()) {
			t.Fatalf("trial %d (%d×%d): row writer differs from encoding/json\n got %.300s\nwant %.300s",
				trial, arr.Channels, arr.Samples, got.Body.Bytes(), ref.Body.Bytes())
		}
		if got.Code != http.StatusOK || got.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("status %d, content type %q", got.Code, got.Header().Get("Content-Type"))
		}
	}
}

// TestDegradedReadHasABody: a member that turns unreadable after ingest is
// a gap. /read still answers 200 with a body that decodes: the lost
// member's samples are null and every other sample is the file's.
func TestDegradedReadHasABody(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	var paths []string
	for _, p := range stageFiles(t, 3) {
		paths = append(paths, arrive(t, dir, p))
	}
	s := newTestServer(t, dir)
	if err := s.Ingester().ScanOnce(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	info, _, err := dasf.ReadInfo(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(paths[1], info.DataOffset+8); err != nil {
		t.Fatal(err)
	}

	resp, err := ts.Client().Get(ts.URL + "/read")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/read: status %d, err %v", resp.StatusCode, err)
	}
	var body struct {
		NumChannels int          `json:"num_channels"`
		NumSamples  int          `json:"num_samples"`
		Gaps        int          `json:"gaps"`
		Data        [][]*float64 `json:"data"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("degraded /read body (%d bytes) does not decode: %v", len(raw), err)
	}
	if body.Gaps != 1 || len(body.Data) != body.NumChannels {
		t.Fatalf("gaps %d, %d rows of %d channels", body.Gaps, len(body.Data), body.NumChannels)
	}
	off := 0
	for m, e := range s.Ingester().Catalog().Entries() {
		nt := e.Info.NumSamples
		var want *dasf.Array2D
		if m != 1 {
			r, err := dasf.Open(e.Path)
			if err != nil {
				t.Fatal(err)
			}
			want, err = r.ReadSlab(0, body.NumChannels, 0, nt)
			r.Close()
			if err != nil {
				t.Fatal(err)
			}
		}
		for c, row := range body.Data {
			for i := 0; i < nt; i++ {
				got := row[off+i]
				switch {
				case m == 1 && got != nil:
					t.Fatalf("lost member's sample [%d][%d] = %v, want null", c, off+i, *got)
				case m != 1 && (got == nil || *got != want.At(c, i)):
					t.Fatalf("sample [%d][%d] = %v, want %v", c, off+i, got, want.At(c, i))
				}
			}
		}
		off += nt
	}
	if off != body.NumSamples {
		t.Fatalf("members hold %d samples, /read answered %d", off, body.NumSamples)
	}
}
