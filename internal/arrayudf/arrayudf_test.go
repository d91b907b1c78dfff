package arrayudf

import (
	"math"
	"testing"

	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/dass"
	"dassa/internal/mpi"
)

// makeView writes a small synthetic series and opens it as a VCA view.
func makeView(t *testing.T, channels, files int) (*dass.View, *dasf.Array2D) {
	t.Helper()
	dir := t.TempDir()
	cfg := dasgen.Config{
		Channels: channels, SampleRate: 40, FileSeconds: 2, NumFiles: files,
		Seed: 3, DType: dasf.Float64,
	}
	if _, err := dasgen.Generate(dir, cfg, nil); err != nil {
		t.Fatal(err)
	}
	cat, err := dass.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	vcaPath := dir + "/v.dasf"
	if _, err := dass.CreateVCA(vcaPath, cat.Entries()); err != nil {
		t.Fatal(err)
	}
	v, err := dass.OpenView(vcaPath)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := v.Read()
	if err != nil {
		t.Fatal(err)
	}
	return v, full
}

func TestStencilAccess(t *testing.T) {
	a := dasf.NewArray2D(5, 10)
	for c := 0; c < 5; c++ {
		for tt := 0; tt < 10; tt++ {
			a.Set(c, tt, float64(c*100+tt))
		}
	}
	blk := Block{Data: a, ChLo: 1, ChHi: 4, Ghost: 1} // owns channels 1..3, block row 0 = channel 0
	s := blk.Stencil(1, 5)                            // owned channel 1 → global channel 2
	if got := s.Value(); got != 205 {
		t.Errorf("Value = %g, want 205", got)
	}
	if got := s.At(0, 1); got != 305 {
		t.Errorf("At(0,+1) = %g, want 305", got)
	}
	if got := s.At(-2, -1); got != 103 {
		t.Errorf("At(-2,-1) = %g, want 103", got)
	}
	// Clamping at edges.
	if got := s.At(-100, 0); got != 200 {
		t.Errorf("time clamp = %g, want 200", got)
	}
	if got := s.At(0, +100); got != 405 {
		t.Errorf("channel clamp = %g, want 405", got)
	}
	// An interior span borrows the block row: no copy, buf untouched.
	w := s.Span(nil, -2, 2, 0)
	want := []float64{203, 204, 205, 206, 207}
	for i := range want {
		if w[i] != want[i] {
			t.Errorf("Span[%d] = %g, want %g", i, w[i], want[i])
		}
	}
	if len(w) != 5 || cap(w) != 5 || &w[0] != &s.Row(0)[3] {
		t.Errorf("interior Span is not a capped view of the row (len %d cap %d)", len(w), cap(w))
	}
	// Spans crossing either end of the series are clamped into buf.
	buf := make([]float64, 8)
	s2 := blk.Stencil(0, 0)
	w2 := s2.Span(buf, -3, 0, 0)
	for i, want := range []float64{100, 100, 100, 100} {
		if w2[i] != want {
			t.Errorf("clamped Span[%d] = %g, want %g", i, w2[i], want)
		}
	}
	if len(w2) != 4 || &w2[0] != &buf[0] {
		t.Error("edge Span did not fill the caller's buffer")
	}
	s2.SetPos(0, 9)
	for i, got := range s2.Span(buf, -1, 2, +1) {
		if want := []float64{208, 209, 209, 209}[i]; got != want {
			t.Errorf("end-clamped Span[%d] = %g, want %g", i, got, want)
		}
	}
	if row := s.Row(0); len(row) != 10 || row[5] != 205 {
		t.Error("Row access broken")
	}
	if s.T() != 5 || s.Channel() != 1 || s.Samples() != 10 {
		t.Error("position accessors broken")
	}
}

func TestSpecOutSamples(t *testing.T) {
	if got := (Spec{}).OutSamples(100); got != 100 {
		t.Errorf("stride 0 OutSamples = %d", got)
	}
	if got := (Spec{TimeStride: 10}).OutSamples(100); got != 10 {
		t.Errorf("stride 10 OutSamples = %d", got)
	}
	if got := (Spec{TimeStride: 7}).OutSamples(100); got != 15 {
		t.Errorf("stride 7 OutSamples = %d, want 15", got)
	}
}

// identityUDF lets us verify partition plumbing exactly.
func identityUDF(s *Stencil) float64 { return s.Value() }

func TestApplyIdentityMatchesInput(t *testing.T) {
	v, full := makeView(t, 10, 3)
	for _, p := range []int{1, 2, 3, 7} {
		var got *dasf.Array2D
		_, err := mpi.Run(p, func(c *mpi.Comm) {
			res := Apply(c, v, Spec{}, identityUDF)
			if out := Gather(c, full.Channels, res); out != nil {
				got = out
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.Channels != full.Channels || got.Samples != full.Samples {
			t.Fatalf("p=%d: shape %d×%d", p, got.Channels, got.Samples)
		}
		for i := range full.Data {
			if got.Data[i] != full.Data[i] {
				t.Fatalf("p=%d: identity Apply differs at %d", p, i)
			}
		}
	}
}

func TestApplyGhostZonesCrossRanks(t *testing.T) {
	// A UDF reading ±2 channels away must produce identical results no
	// matter how many ranks the array is split across — the ghost zones do
	// their job exactly when this holds.
	v, _ := makeView(t, 12, 2)
	spec := Spec{GhostChannels: 2}
	udf := func(s *Stencil) float64 {
		return s.At(0, -2) + s.At(0, 2) + 0.5*s.Value()
	}
	var ref *dasf.Array2D
	nch, _ := v.Shape()
	for _, p := range []int{1, 3, 5, 12} {
		var got *dasf.Array2D
		_, err := mpi.Run(p, func(c *mpi.Comm) {
			res := Apply(c, v, spec, udf)
			if out := Gather(c, nch, res); out != nil {
				got = out
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range ref.Data {
			if got.Data[i] != ref.Data[i] {
				t.Fatalf("p=%d: ghost-zone result differs from p=1 at %d", p, i)
			}
		}
	}
}

func TestApplyTimeStride(t *testing.T) {
	v, full := makeView(t, 4, 2)
	spec := Spec{TimeStride: 5}
	var got *dasf.Array2D
	_, err := mpi.Run(2, func(c *mpi.Comm) {
		res := Apply(c, v, spec, identityUDF)
		if out := Gather(c, full.Channels, res); out != nil {
			got = out
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	wantT := spec.OutSamples(full.Samples)
	if got.Samples != wantT {
		t.Fatalf("output samples = %d, want %d", got.Samples, wantT)
	}
	for c := 0; c < full.Channels; c++ {
		for i := 0; i < wantT; i++ {
			if got.At(c, i) != full.At(c, i*5) {
				t.Fatalf("strided output (%d,%d) wrong", c, i)
			}
		}
	}
}

func TestMoreRanksThanChannels(t *testing.T) {
	v, full := makeView(t, 3, 1)
	var got *dasf.Array2D
	_, err := mpi.Run(8, func(c *mpi.Comm) {
		res := Apply(c, v, Spec{GhostChannels: 1}, identityUDF)
		if out := Gather(c, full.Channels, res); out != nil {
			got = out
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.Data {
		if got.Data[i] != full.Data[i] {
			t.Fatalf("overprovisioned world differs at %d", i)
		}
	}
}

func TestLoadBlockTraceCountsPerRank(t *testing.T) {
	v, _ := makeView(t, 8, 4)
	var localOpens, totalOpens int64
	_, err := mpi.Run(4, func(c *mpi.Comm) {
		_, tr, _ := LoadBlock(c, v, Spec{})
		sum := mpi.Reduce(c, 0, []int64{tr.Opens}, mpi.SumI64)
		if c.Rank() == 0 {
			localOpens = tr.Opens
			totalOpens = sum[0]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// LoadBlock's trace is per-rank: each rank opens each of the 4 member
	// files once; globally that is the O(p×n) independent-read pattern.
	if localOpens != 4 {
		t.Errorf("rank-local opens = %d, want 4", localOpens)
	}
	if totalOpens != 16 {
		t.Errorf("total opens = %d, want 16", totalOpens)
	}
}

func TestApplyAgainstDirectComputation(t *testing.T) {
	// Three-point moving average (the paper's introductory example).
	v, full := makeView(t, 5, 2)
	udf := func(s *Stencil) float64 {
		return (s.At(-1, 0) + s.At(0, 0) + s.At(1, 0)) / 3
	}
	var got *dasf.Array2D
	_, err := mpi.Run(3, func(c *mpi.Comm) {
		res := Apply(c, v, Spec{}, udf)
		if out := Gather(c, full.Channels, res); out != nil {
			got = out
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < full.Channels; c++ {
		for tt := 1; tt < full.Samples-1; tt++ {
			want := (full.At(c, tt-1) + full.At(c, tt) + full.At(c, tt+1)) / 3
			if d := math.Abs(got.At(c, tt) - want); d > 1e-12 {
				t.Fatalf("moving average (%d,%d) off by %g", c, tt, d)
			}
		}
		// Edges clamp.
		wantEdge := (full.At(c, 0) + full.At(c, 0) + full.At(c, 1)) / 3
		if math.Abs(got.At(c, 0)-wantEdge) > 1e-12 {
			t.Fatalf("clamped edge wrong on channel %d", c)
		}
	}
}
