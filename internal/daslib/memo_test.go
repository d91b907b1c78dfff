package daslib

import (
	"sync"
	"testing"
)

// TestMemoFirstValueWins: callers that miss one fresh key at once each
// build, and every one of them gets the first value stored; a later get
// does not build again. PlanFFT, which every transform path goes through,
// hands out one plan per fresh size the same way.
func TestMemoFirstValueWins(t *testing.T) {
	const callers = 8
	var table memo[int, *int]
	var entered sync.WaitGroup
	entered.Add(callers)
	release := make(chan struct{})
	build := func(int) *int {
		entered.Done()
		<-release // nothing is stored until all have missed
		return new(int)
	}
	got := make([]*int, callers)
	var done sync.WaitGroup
	for i := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			got[i] = table.get(7, build)
		}()
	}
	entered.Wait()
	close(release)
	done.Wait()
	for i, v := range got {
		if v == nil || v != got[0] {
			t.Fatalf("caller %d got %p, caller 0 got %p: want one value for all", i, v, got[0])
		}
	}
	if v := table.get(7, func(int) *int { t.Error("a stored key was built again"); return nil }); v != got[0] {
		t.Fatalf("a later get returned %p, want %p", v, got[0])
	}

	n := 3001 // an odd size, so the plan also builds its convolution plan
	for ; planned(n); n += 2 {
	}
	byCaller := make([]*Plan, callers)
	start := make(chan struct{})
	for i := range byCaller {
		done.Add(1)
		go func() {
			defer done.Done()
			<-start
			byCaller[i] = PlanFFT(n)
		}()
	}
	close(start)
	done.Wait()
	for i, p := range byCaller {
		if p == nil || p != byCaller[0] || p.n != n {
			t.Fatalf("PlanFFT(%d) caller %d got %p, caller 0 got %p", n, i, p, byCaller[0])
		}
	}
	if p := PlanFFT(n); p != byCaller[0] {
		t.Fatalf("a later PlanFFT(%d) returned %p, want %p", n, p, byCaller[0])
	}
}

// planned reports whether PlanFFT already holds a plan of size n.
func planned(n int) bool {
	plans.mu.RLock()
	defer plans.mu.RUnlock()
	_, ok := plans.m[n]
	return ok
}
