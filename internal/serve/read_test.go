package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"

	"dassa/internal/dasf"
	"dassa/internal/omp"
	"dassa/internal/testutil/leakcheck"
)

// readJSONSummary is the summary map a /read body closes with.
func readJSONSummary(arr *dasf.Array2D) map[string]any {
	return map[string]any{"num_channels": arr.Channels, "num_samples": arr.Samples,
		"io": map[string]int64{"opens": 1, "reads": 2}, "gaps": 0, "distributed": false}
}

// checkReadJSON writes arr on team and requires the bytes encoding/json
// writes for the whole response map, a NaN sample as null.
func checkReadJSON(t *testing.T, team *omp.Team, arr *dasf.Array2D) {
	t.Helper()
	want := readJSONSummary(arr)
	rows := make([][]*float64, arr.Channels)
	for c := range rows {
		for _, v := range arr.Row(c) {
			if math.IsNaN(v) {
				rows[c] = append(rows[c], nil)
			} else {
				rows[c] = append(rows[c], &v)
			}
		}
		if rows[c] == nil {
			rows[c] = []*float64{}
		}
	}
	want["data"] = rows
	ref := httptest.NewRecorder()
	writeJSON(ref, http.StatusOK, want)
	got := httptest.NewRecorder()
	writeReadJSON(context.Background(), got, team, readJSONSummary(arr), arr)
	if !bytes.Equal(got.Body.Bytes(), ref.Body.Bytes()) {
		t.Fatalf("%d×%d on %d threads: row writer differs from encoding/json\n got %.300s\nwant %.300s",
			arr.Channels, arr.Samples, team.Threads(), got.Body.Bytes(), ref.Body.Bytes())
	}
	if got.Code != http.StatusOK || got.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, content type %q", got.Code, got.Header().Get("Content-Type"))
	}
}

// float32Exact fills arr with float32-exact samples, as the files hold them.
func float32Exact(rng *rand.Rand, arr *dasf.Array2D) *dasf.Array2D {
	for i := range arr.Data {
		arr.Data[i] = float64(float32(rng.NormFloat64() * 1e3))
	}
	return arr
}

// TestReadJSONMatchesEncodingJSON: for finite samples the /read row writer
// writes the bytes encoding/json writes for the whole response map, over
// random shapes and values from subnormal to past the exponent switch, on
// teams of one to three threads.
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
		checkReadJSON(t, omp.NewTeam(1+trial%3), arr)
	}
}

// TestReadJSONTeamShapes: the shapes the team split makes — one row, fewer
// rows than threads, the harness's 33 float32 rows of 2 000 samples over an
// uneven split, and a NaN at the first and the last sample of every
// thread's run of rows — each come out as encoding/json's bytes.
func TestReadJSONTeamShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	checkReadJSON(t, omp.NewTeam(4), float32Exact(rng, dasf.NewArray2D(1, 2000)))
	checkReadJSON(t, omp.NewTeam(8), float32Exact(rng, dasf.NewArray2D(3, 700)))
	for _, threads := range []int{1, 2, 4} {
		arr := float32Exact(rng, dasf.NewArray2D(33, 2000))
		checkReadJSON(t, omp.NewTeam(threads), arr)
		// Thread h's run is rows [h·33/threads, (h+1)·33/threads), the
		// larger runs first.
		for h, lo := 0, 0; h < threads; h++ {
			hi := lo + 33/threads
			if h < 33%threads {
				hi++
			}
			arr.Row(lo)[0] = math.NaN()
			arr.Row(hi - 1)[arr.Samples-1] = math.NaN()
			lo = hi
		}
		checkReadJSON(t, omp.NewTeam(threads), arr)
	}
}

// cutWriter is a ResponseWriter whose connection drops after limit bytes.
type cutWriter struct {
	header   http.Header
	limit, n int
}

func (w *cutWriter) Header() http.Header { return w.header }
func (w *cutWriter) WriteHeader(int)     {}
func (w *cutWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.limit {
		k := w.limit - w.n
		w.n = w.limit
		return k, errors.New("connection reset by peer")
	}
	w.n += len(p)
	return len(p), nil
}

// TestReadJSONFailedWriteJoins: a client that goes away part-way through the
// body ends the write. Every formatting thread is joined before the writer
// returns, nothing more is written past the failure, and the per-thread
// buffers go back to the pool: the next response on one P borrows them
// instead of making new ones.
func TestReadJSONFailedWriteJoins(t *testing.T) {
	leakcheck.Check(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	made := 0
	defer func(fresh func() any) { rowBufs.New = fresh }(rowBufs.New)
	rowBufs.New = func() any { made++; return new([]byte) }
	runtime.GC()
	runtime.GC() // two cycles empty the pool and its victim cache

	arr := float32Exact(rand.New(rand.NewSource(7)), dasf.NewArray2D(32, 2000))
	team := omp.NewTeam(2)
	cut := &cutWriter{header: http.Header{}, limit: 40 << 10}
	writeReadJSON(context.Background(), cut, team, readJSONSummary(arr), arr)
	if cut.n != cut.limit {
		t.Fatalf("wrote %d bytes before the cut at %d", cut.n, cut.limit)
	}
	if made != 2 {
		t.Fatalf("two threads made %d buffers", made)
	}
	whole := &cutWriter{header: http.Header{}, limit: math.MaxInt}
	writeReadJSON(context.Background(), whole, team, readJSONSummary(arr), arr)
	if whole.n <= cut.limit {
		t.Fatalf("whole body is %d bytes", whole.n)
	}
	// The race detector drops a quarter of sync.Pool's Puts on purpose.
	if !raceBuild && made != 2 {
		t.Fatalf("the failed write's buffers did not go back: %d made in all", made)
	}
}

// BenchmarkReadJSON formats the harness's /read body — 32 channels of
// 2 000 float32 samples — on teams of one and two threads, into a writer
// that keeps nothing.
func BenchmarkReadJSON(b *testing.B) {
	arr := float32Exact(rand.New(rand.NewSource(1)), dasf.NewArray2D(32, 2000))
	for _, threads := range []int{1, 2} {
		b.Run(fmt.Sprintf("team=%d", threads), func(b *testing.B) {
			team := omp.NewTeam(threads)
			w := &cutWriter{header: http.Header{}, limit: math.MaxInt}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.n = 0
				writeReadJSON(context.Background(), w, team, readJSONSummary(arr), arr)
			}
			b.SetBytes(int64(w.n))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(arr.Data)), "ns/value")
		})
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

// TestDegradedReadMovesQuality: a /read with one member missing moves
// /status "quality" by one degraded read, one gap, the cells it masked and
// one lost file — for the whole window and for a window that cuts the lost
// member and the channels.
func TestDegradedReadMovesQuality(t *testing.T) {
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
	if err := os.Remove(paths[1]); err != nil {
		t.Fatal(err)
	}
	quality := func() QualityStats {
		var status struct {
			Quality QualityStats `json:"quality"`
		}
		getJSON(t, ts, "/status", &status)
		return status.Quality
	}

	nch, m := info.NumChannels, info.NumSamples
	for _, tc := range []struct {
		query  string
		masked int
	}{
		{"/read?data=0", nch * m},
		{fmt.Sprintf("/read?data=0&ch0=1&ch1=%d&t0=%d&t1=%d", nch-1, m/2, m+m/3), (nch - 2) * (m / 3)},
	} {
		before := quality()
		var body struct {
			Gaps int `json:"gaps"`
		}
		if resp := getJSON(t, ts, tc.query, &body); resp.StatusCode != http.StatusOK || body.Gaps != 1 {
			t.Fatalf("%s: status %d, %d gaps", tc.query, resp.StatusCode, body.Gaps)
		}
		after := quality()
		got := QualityStats{
			DegradedReads: after.DegradedReads - before.DegradedReads,
			Gaps:          after.Gaps - before.Gaps,
			MaskedSamples: after.MaskedSamples - before.MaskedSamples,
			LostFiles:     after.LostFiles - before.LostFiles,
			Retries:       after.Retries - before.Retries,
		}
		want := QualityStats{DegradedReads: 1, Gaps: 1, MaskedSamples: int64(tc.masked), LostFiles: 1}
		if got != want {
			t.Errorf("%s moved quality by %+v, want %+v", tc.query, got, want)
		}
	}
}
