package omp

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestStaticRangeCoversExactly(t *testing.T) {
	for _, tc := range []struct{ n, threads int }{
		{10, 3}, {1, 1}, {7, 7}, {100, 8}, {5, 4}, {16, 16},
	} {
		covered := make([]int, tc.n)
		prevHi := 0
		for h := 0; h < tc.threads; h++ {
			lo, hi := staticRange(tc.n, tc.threads, h)
			if lo != prevHi {
				t.Errorf("n=%d threads=%d: thread %d starts at %d, want %d", tc.n, tc.threads, h, lo, prevHi)
			}
			for i := lo; i < hi; i++ {
				covered[i]++
			}
			prevHi = hi
		}
		if prevHi != tc.n {
			t.Errorf("n=%d threads=%d: last hi = %d", tc.n, tc.threads, prevHi)
		}
		for i, c := range covered {
			if c != 1 {
				t.Errorf("n=%d threads=%d: iteration %d covered %d times", tc.n, tc.threads, i, c)
			}
		}
	}
}

func TestStaticRangeBalance(t *testing.T) {
	// Chunk sizes must differ by at most 1.
	for _, tc := range []struct{ n, threads int }{{100, 7}, {13, 5}, {8, 8}} {
		minSz, maxSz := tc.n, 0
		for h := 0; h < tc.threads; h++ {
			lo, hi := staticRange(tc.n, tc.threads, h)
			sz := hi - lo
			minSz = min(minSz, sz)
			maxSz = max(maxSz, sz)
		}
		if maxSz-minSz > 1 {
			t.Errorf("n=%d threads=%d: chunk sizes range [%d,%d]", tc.n, tc.threads, minSz, maxSz)
		}
	}
}

func TestForVisitsAllOnce(t *testing.T) {
	for _, threads := range []int{1, 3, 4, 7} {
		team := NewTeam(threads)
		const n = 1000
		counts := make([]atomic.Int32, n)
		team.For(n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Errorf("%d threads: iteration %d ran %d times", threads, i, c)
			}
		}
	}
}

func TestForEmptyAndSmall(t *testing.T) {
	team := NewTeam(8)
	team.For(0, func(int) { t.Error("body called for n=0") })
	team.For(-5, func(int) { t.Error("body called for n<0") })
	ran := atomic.Int32{}
	team.For(2, func(int) { ran.Add(1) }) // fewer iterations than threads
	if ran.Load() != 2 {
		t.Errorf("ran %d iterations, want 2", ran.Load())
	}
}

func TestForThreadIDsInRange(t *testing.T) {
	team := NewTeam(3)
	team.ForThread(50, func(_, h int) {
		if h < 0 || h >= 3 {
			t.Errorf("thread id %d out of range", h)
		}
	})
}

func TestForAppendOrderPreserved(t *testing.T) {
	// With a static schedule, ForAppend output must follow iteration order
	// even when iterations append variable numbers of results.
	team := NewTeam(5)
	got := ForAppend(team, 37, func(i int, out *[]int) {
		for k := 0; k <= i%3; k++ {
			*out = append(*out, i*10+k)
		}
	})
	var want []int
	for i := 0; i < 37; i++ {
		for k := 0; k <= i%3; k++ {
			want = append(want, i*10+k)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestForAppendMatchesSequentialProperty(t *testing.T) {
	f := func(nRaw, threadsRaw uint8) bool {
		n := int(nRaw) % 200
		threads := int(threadsRaw)%8 + 1
		team := NewTeam(threads)
		got := ForAppend(team, n, func(i int, out *[]int) {
			if i%2 == 0 {
				*out = append(*out, i*i)
			}
		})
		var want []int
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				want = append(want, i*i)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForAppendLockedSameMultiset(t *testing.T) {
	team := NewTeam(4)
	got := ForAppendLocked(team, 100, func(i int, out *[]int) {
		*out = append(*out, i)
	})
	if len(got) != 100 {
		t.Fatalf("len = %d", len(got))
	}
	seen := make(map[int]bool)
	for _, v := range got {
		if seen[v] {
			t.Fatalf("duplicate %d", v)
		}
		seen[v] = true
	}
}

func TestNewTeamDefaults(t *testing.T) {
	if NewTeam(0).Threads() <= 0 {
		t.Error("NewTeam(0) should default to NumCPU")
	}
	if got := NewTeam(3).Threads(); got != 3 {
		t.Errorf("Threads() = %d, want 3", got)
	}
}
