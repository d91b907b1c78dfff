package detect

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"dassa/internal/arrayudf"
	"dassa/internal/dasf"
	"dassa/internal/daslib"
)

// window copies samples [lo, hi) of every channel of rec into a block with
// no halo rows: a view of the record from lo on.
func window(rec *dasf.Array2D, lo, hi int) arrayudf.Block {
	a := dasf.NewArray2D(rec.Channels, hi-lo)
	for c := 0; c < rec.Channels; c++ {
		copy(a.Row(c), rec.Row(c)[lo:hi])
	}
	return arrayudf.Block{Data: a, ChHi: rec.Channels}
}

// TestTimeReachContract holds every op that declares a reach to what score
// tiles assume of it: a cell is a function of the samples within its reach
// and of its position modulo the stride. Over a seeded record of members
// whose lengths are off the stride, salted with NaN gaps, a whole-file view V
// and a sub-view V′ starting on V's grid must agree bit for bit on every
// cell whose reach is inside both views, or clamps only at an edge the two
// share. Stride 1 and short strides scanned directly are drawn on purpose.
func TestTimeReachContract(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	scr := daslib.NewScratch()
	tiled := 0
	for _, op := range Ops() {
		if _, _, ok := TimeReach(op.Default(250, 1000)); !ok {
			continue
		}
		tiled++
		var compared, strideOne, scanned int
		for iter := 0; iter < 80; iter++ {
			// The record: 2–6 members, each off the stride grid.
			nch, m := 2+rng.Intn(4), 2+rng.Intn(5)
			offs := make([]int, m+1)
			for i := 0; i < m; i++ {
				offs[i+1] = offs[i] + 17 + rng.Intn(180)
			}
			rec := hostileBlock(rng, nch, offs[m], 0).Data

			// Parameters and a whole-file view V they fit.
			var p Params
			var a, b, stride int
			for try := 0; ; try++ {
				if try == 10000 {
					t.Fatalf("%s: no parameters fit a view of the record %v", op.Name, offs)
				}
				p = op.Default(250, 1000)
				for _, f := range Fields(p) {
					if err := Set(p, f.Key, strconv.Itoa(rng.Intn(40))); err != nil {
						t.Fatal(err)
					}
				}
				switch iter % 4 { // an op without a stride refuses the key
				case 0:
					_ = Set(p, "stride", "1")
				case 1:
					_ = Set(p, "stride", strconv.Itoa(2+rng.Intn(3)))
				}
				a = rng.Intn(m)
				b = a + 1 + rng.Intn(m-a)
				if p.Validate(nch, offs[b]-offs[a]) == nil {
					break
				}
			}
			nt := offs[b] - offs[a]
			w := p.Workload(nt)
			stride = max(w.Spec.TimeStride, 1)
			if stride == 1 {
				strideOne++
			}
			if g, ok := p.(interface{ grid() *segGrid }); ok && stride > 1 && !g.grid().partials {
				scanned++
			}
			back, fwd, _ := TimeReach(p)

			// A sub-view V′ = [lo, hi) of V, lo on V's grid, that p accepts;
			// a third of them share V's start, a third its end.
			var lo, hi int
			for try := 0; ; try++ {
				if try == 10000 {
					t.Fatalf("%s %+v: no sub-view of %d samples fits", op.Name, p, nt)
				}
				lo, hi = stride*rng.Intn((nt-1)/stride+1), nt
				if rng.Intn(3) == 0 {
					lo = 0
				}
				if rng.Intn(3) != 0 {
					hi = lo + 1 + rng.Intn(nt-lo)
				}
				if p.Validate(nch, hi-lo) == nil {
					break
				}
			}
			udf := w.UDFScratch
			full := sweep(window(rec, offs[a], offs[b]), stride, udf, scr)
			part := sweep(window(rec, offs[a]+lo, offs[a]+hi), stride, p.Workload(hi-lo).UDFScratch, scr)
			for i := 0; i*stride < hi-lo; i++ {
				ts, tv := i*stride, lo+i*stride // in V′, in V
				startOK := lo == 0 || (tv-back >= 0 && ts-back >= 0)
				endOK := hi == nt || (tv+fwd < nt && ts+fwd < hi-lo)
				if !startOK || !endOK {
					continue
				}
				compared++
				for c := 0; c < nch; c++ {
					got, want := part[c][i], full[c][lo/stride+i]
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s %+v: cell (%d, %d) of V = [%d,%d) is %v in V′ = [%d,%d) of V and %v in V",
							op.Name, p, c, tv, offs[a], offs[b], got, lo, hi, want)
					}
				}
			}
		}
		t.Logf("%s: %d cells compared, %d stride-1 draws, %d direct-scan draws", op.Name, compared, strideOne, scanned)
		if compared < 500 || strideOne < 10 || scanned < 5 {
			t.Errorf("%s: %d cells compared, %d stride-1 draws, %d direct-scan draws: the draw no longer covers the contract",
				op.Name, compared, strideOne, scanned)
		}
	}
	if tiled < 2 {
		t.Errorf("%d registered ops declare a reach, want localsimi and stalta at least", tiled)
	}
}
