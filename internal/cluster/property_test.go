package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"dassa/internal/core"
	"dassa/internal/detect"
	"dassa/internal/testutil/leakcheck"
)

// TestShardInvariance is distributed ≡ in-process as a property over the
// registry (ROADMAP item 11): for seeded random windows of a record, every
// shardable registered op at its defaults and at random valid parameters, and
// every shard count from 1 to min(width, 9) over two workers, Coordinator.Run
// returns core.Run's output on the same window bit for bit. However the
// channel axis is cut, halo rows make border cells see what interior cells
// see, and a shard's time axis is the window's. TestCluster*MatchesLocal stay
// as the fixed cases.
func TestShardInvariance(t *testing.T) {
	leakcheck.Check(t)
	v, rate := makeView(t, 20, 3)
	_, a1 := startWorker(t, WorkerConfig{Cores: 2})
	_, a2 := startWorker(t, WorkerConfig{Cores: 1})
	co := newCoord(t, []string{a1, a2}, nil)
	fw := core.New(core.Config{Nodes: 1, CoresPerNode: 2})
	rng := rand.New(rand.NewSource(23))
	nchAll, ntAll := v.Shape()
	ran := map[string]int{}
	for trial := 0; trial < 8; trial++ {
		// The first window is the whole record; the rest are random, at least
		// 4 channels by a third of the record.
		width, span := nchAll, ntAll
		if trial > 0 {
			width, span = 4+rng.Intn(nchAll-3), ntAll/3+rng.Intn(ntAll-ntAll/3+1)
		}
		chLo, tLo := rng.Intn(nchAll-width+1), rng.Intn(ntAll-span+1)
		sub, err := v.Subset(chLo, chLo+width, tLo, tLo+span)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range detect.Ops() {
			for _, random := range []bool{false, true} {
				p := op.Default(rate, span)
				if random {
					p = randomParams(rng, op, rate, width, span)
				}
				if p == nil || p.Validate(width, span) != nil || p.Workload(span).Prepare != nil {
					continue
				}
				want, _, err := fw.Run(sub, p, "")
				if err != nil {
					t.Fatalf("%s %+v in process: %v", op.Name, p, err)
				}
				ran[op.Name]++
				for shards := 1; shards <= min(width, 9); shards++ {
					at := fmt.Sprintf("%s %+v on [%d:%d)×[%d:%d) in %d shards", op.Name, p, chLo, chLo+width, tLo, tLo+span, shards)
					res, err := co.Run(context.Background(), Request{View: sub, Params: p, Shards: shards})
					if err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					if res.Shards != shards || res.Data.Channels != want.Channels || res.Data.Samples != want.Samples {
						t.Fatalf("%s: %d shards, %d×%d, in process %d×%d", at, res.Shards, res.Data.Channels, res.Data.Samples, want.Channels, want.Samples)
					}
					for i, g := range res.Data.Data {
						if math.Float64bits(g) != math.Float64bits(want.Data[i]) {
							t.Fatalf("%s: cell (%d,%d) = %v, in process %v", at, i/want.Samples, i%want.Samples, g, want.Data[i])
						}
					}
				}
			}
		}
	}
	for _, name := range []string{detect.LocalSimiParams{}.Op(), detect.STALTAParams{}.Op()} {
		if ran[name] < 8 {
			t.Errorf("%s ran %d times: the property saw almost none of it", name, ran[name])
		}
	}
	t.Logf("parameter sets compared, by op: %v", ran)
}

// randomParams draws every parameter op declares until the block fits the
// nch × nt window; nil when thirty draws found none.
func randomParams(rng *rand.Rand, op detect.Op, rate float64, nch, nt int) detect.Params {
	for try := 0; try < 30; try++ {
		p := op.Default(rate, nt)
		for _, f := range detect.Fields(p) {
			if err := detect.Set(p, f.Key, strconv.Itoa(rng.Intn(nt/6))); err != nil {
				panic(err)
			}
		}
		if p.Validate(nch, nt) == nil {
			return p
		}
	}
	return nil
}
