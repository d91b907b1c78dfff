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
	"strconv"
	"testing"

	"dassa/internal/dasf"
	"dassa/internal/dasgen"
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

// strconvJSONFloat is the /read formatter before the float32 fast path:
// strconv's shortest digits laid out as encoding/json lays them out. It is
// the oracle appendJSONFloat is held to.
func strconvJSONFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// takesFastPath reports whether appendFloat32JSON should take f: a widened
// float32 with 1e-6 ≤ |f| < 2^30 whose significand is not a power of two.
func takesFastPath(f float64) bool {
	abs := math.Abs(f)
	return float64(float32(f)) == f && abs >= 1e-6 && abs < 1<<30 &&
		math.Float32bits(float32(f))&(1<<23-1) != 0
}

// checkJSONFloat requires appendJSONFloat to write the oracle's bytes for f
// and the fast path to take f exactly when takesFastPath says so.
func checkJSONFloat(t testing.TB, f float64) {
	prefix := []byte("[1,")
	got := appendJSONFloat(prefix[:len(prefix):len(prefix)], f)
	want := strconvJSONFloat(prefix[:len(prefix):len(prefix)], f)
	if !bytes.Equal(got, want) {
		t.Fatalf("%x: wrote %s, strconv writes %s", math.Float64bits(f), got, want)
	}
	fast, ok := appendFloat32JSON(nil, f)
	if ok != takesFastPath(f) || !ok && len(fast) != 0 {
		t.Fatalf("%s (%x): fast path took it %v, appended %q", want[len(prefix):], math.Float64bits(f), ok, fast)
	}
}

// TestAppendJSONFloatMatchesStrconv: the fast path writes strconv's bytes
// over every binade it accepts, with both signs (each binade's first and
// last 512 significands and 4 096 seeded ones), every power of two, and the
// float32 neighbours of each power of ten in range, of 1e-6 and of 2^30. It
// takes exactly the values it promises to take: a range that narrows, or a
// power-of-two significand let in, fails here.
func TestAppendJSONFloatMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	fast := 0
	check := func(f float64) {
		for _, v := range []float64{f, -f} {
			checkJSONFloat(t, v)
			if takesFastPath(v) {
				fast++
			}
		}
	}
	// Binade q holds m·2^q for 2^23 ≤ m < 2^24; 1e-6 falls in q = −43 and
	// 2^30 starts q = 7.
	for q := -43; q <= 6; q++ {
		for i := range 512 {
			check(math.Ldexp(float64(1<<23+i), q))
			check(math.Ldexp(float64(1<<24-1-i), q))
		}
		for range 4096 {
			check(math.Ldexp(float64(1<<23+rng.Intn(1<<23)), q))
		}
	}
	for e := -1074; e <= 1023; e++ {
		check(math.Ldexp(1, e))
	}
	edges := []float64{1e-6, 1 << 30, math.MaxFloat32, math.SmallestNonzeroFloat32}
	for e := -6; e <= 9; e++ {
		edges = append(edges, math.Pow(10, float64(e)))
	}
	for _, p := range edges {
		lo, hi := float32(p), float32(p)
		for range 8 {
			check(float64(lo))
			check(float64(hi))
			lo, hi = math.Nextafter32(lo, 0), math.Nextafter32(hi, math.MaxFloat32)
		}
	}
	for _, f := range []float64{0, math.NaN(), math.Inf(1), 0.1, 1e21, 5e-324} {
		check(f)
	}
	// 50 binades × 2 signs × (1 024 + 4 096) draws, less the edge binade's
	// values under 1e-6 and the binades' first significand, plus the edges.
	if fast < 500_000 {
		t.Fatalf("only %d values took the fast path", fast)
	}
}

// FuzzAppendJSONFloat: a widened float32 and a float64, each from raw bits,
// come out as strconv writes them, through the path takesFastPath names.
func FuzzAppendJSONFloat(f *testing.F) {
	f.Add(math.Float32bits(0.1), math.Float64bits(0.1))
	f.Add(math.Float32bits(1e-6), math.Float64bits(1e-6))
	f.Add(math.Float32bits(1<<30-64), math.Float64bits(1<<30))
	f.Add(math.Float32bits(-123.456), math.Float64bits(-123.456))
	f.Fuzz(func(t *testing.T, b32 uint32, b64 uint64) {
		checkJSONFloat(t, float64(math.Float32frombits(b32)))
		checkJSONFloat(t, math.Float64frombits(b64))
	})
}

// TestReadJSONFastPathCoversDasgen: every sample of the benchmark's seed-12
// record at 128 channels, as the daemon reads it from the float32 files,
// takes the fast path, so the /read formatter's speed-up is measured on the
// samples the daemon serves.
func TestReadJSONFastPathCoversDasgen(t *testing.T) {
	dir := t.TempDir()
	cfg := dasgen.Config{Channels: 128, SampleRate: 250, FileSeconds: 4, NumFiles: 4, Seed: 12, DType: dasf.Float32}
	paths, err := dasgen.Generate(dir, cfg, dasgen.Fig10Events(cfg))
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	total, smallest := 0, math.Inf(1)
	for _, p := range paths {
		r, err := dasf.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		arr, err := r.ReadSlab(0, cfg.Channels, 0, cfg.SamplesPerFile())
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range arr.Data {
			var ok bool
			if buf, ok = appendFloat32JSON(buf[:0], v); !ok {
				t.Fatalf("%s: sample %v (%x) goes to strconv", p, v, math.Float64bits(v))
			}
			total++
			smallest = min(smallest, math.Abs(v))
		}
	}
	if total != cfg.Channels*cfg.TotalSamples() {
		t.Fatalf("read %d samples of %d", total, cfg.Channels*cfg.TotalSamples())
	}
	t.Logf("%d samples, all on the fast path; smallest |x| %.3g", total, smallest)
}

// BenchmarkReadJSON formats the harness's /read body — 32 channels of
// 2 000 samples — on teams of one and two threads, into a writer that
// keeps nothing: float32 samples, which take the fast path, and float64
// ones, which all go to strconv.
func BenchmarkReadJSON(b *testing.B) {
	f32 := float32Exact(rand.New(rand.NewSource(1)), dasf.NewArray2D(32, 2000))
	f64 := dasf.NewArray2D(32, 2000)
	rng := rand.New(rand.NewSource(1))
	for i := range f64.Data {
		f64.Data[i] = rng.NormFloat64() * 1e3
		if takesFastPath(f64.Data[i]) {
			b.Fatalf("float64 sample %v takes the fast path", f64.Data[i])
		}
	}
	for _, c := range []struct {
		name string
		arr  *dasf.Array2D
	}{{"", f32}, {"float64/", f64}} {
		for _, threads := range []int{1, 2} {
			b.Run(fmt.Sprintf("%steam=%d", c.name, threads), func(b *testing.B) {
				arr := c.arr
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
