package bench

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"dassa/internal/cluster"
	"dassa/internal/core"
	"dassa/internal/dass"
	"dassa/internal/haee"
)

// ClusterRow is one execution-layout measurement of the distributed
// detection comparison: the same local-similarity job run in process and
// fanned out over loopback dassw workers.
type ClusterRow struct {
	Layout   string        `json:"layout"`
	Workers  int           `json:"workers"`
	Shards   int           `json:"shards"`
	Wall     time.Duration `json:"wall_ns"`
	Degraded bool          `json:"degraded"`
}

// RunCluster measures the distributed execution subsystem against the
// in-process engine on the standard dataset's local-similarity workload.
// Loopback TCP on one machine cannot show real scale-out (every worker
// shares the same cores and page cache); what the experiment verifies is
// the coordination overhead — wire framing, shard dispatch, halo re-reads
// and the NaN-merge — which is the part the paper's Figure 11 numbers
// assume is negligible.
func RunCluster(o Options) ([]ClusterRow, error) {
	w := o.out()
	cat, err := EnsureDataset(o)
	if err != nil {
		return nil, err
	}
	v, err := dass.ViewOver(cat.Entries())
	if err != nil {
		return nil, err
	}
	p := core.DefaultLocalSimi(o.SampleRate).LocalSimiParams

	var rows []ClusterRow

	// Baseline: the in-process engine at the same core budget.
	eng := haee.New(haee.Config{Nodes: 1, CoresPerNode: o.CoresPerNode, Mode: haee.Hybrid, FailPolicy: dass.FailDegrade})
	t0 := time.Now()
	rep, err := eng.RunPoints(v, haee.PointsWorkload{Spec: p.Spec(), UDFScratch: p.UDFScratch()}, "")
	if err != nil {
		return nil, err
	}
	rows = append(rows, ClusterRow{
		Layout: "in-process", Workers: 0, Shards: 1,
		Wall: time.Since(t0), Degraded: rep.Quality.Degraded(),
	})

	for _, n := range []int{2, 4} {
		row, err := runClusterLayout(v, o, n)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}

	hline(w, "Cluster fan-out (local similarity, loopback workers)")
	fmt.Fprintf(w, "%-12s %8s %8s %12s %10s\n", "layout", "workers", "shards", "wall", "degraded")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %8d %8d %12v %10v\n",
			r.Layout, r.Workers, r.Shards, r.Wall.Round(time.Millisecond), r.Degraded)
	}
	return rows, nil
}

// runClusterLayout spins up n loopback workers, runs the job through a
// coordinator, and tears everything down.
func runClusterLayout(v *dass.View, o Options, n int) (ClusterRow, error) {
	var addrs []string
	var workers []*cluster.Worker
	// Defers run LIFO: Close severs every listener first, then Wait joins
	// the serve goroutines before the bench row is returned.
	var wg sync.WaitGroup
	defer wg.Wait()
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return ClusterRow{}, err
		}
		w := cluster.NewWorker(cluster.WorkerConfig{
			Cores:          max(o.CoresPerNode/n, 1),
			HeartbeatEvery: 200 * time.Millisecond,
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Serve(ln)
		}()
		workers = append(workers, w)
		addrs = append(addrs, ln.Addr().String())
	}
	co, err := cluster.NewCoordinator(cluster.Config{
		Workers:        addrs,
		HeartbeatEvery: 200 * time.Millisecond,
		FailPolicy:     dass.FailDegrade,
	})
	if err != nil {
		return ClusterRow{}, err
	}
	defer co.Close()
	p := core.DefaultLocalSimi(o.SampleRate).LocalSimiParams
	res, err := co.Run(context.Background(), cluster.Request{
		View: v, Op: cluster.OpLocalSimi, Rate: o.SampleRate, LocalSimi: p,
	})
	if err != nil {
		return ClusterRow{}, err
	}
	return ClusterRow{
		Layout:  fmt.Sprintf("%d-worker", n),
		Workers: res.Workers, Shards: res.Shards,
		Wall: res.Wall, Degraded: res.Degraded(),
	}, nil
}
