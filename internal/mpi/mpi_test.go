package mpi

import (
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRunSizeValidation(t *testing.T) {
	if _, err := Run(0, func(*Comm) {}); err == nil {
		t.Fatal("Run(0) should fail")
	}
	if _, err := Run(-3, func(*Comm) {}); err == nil {
		t.Fatal("Run(-3) should fail")
	}
}

func TestRankAndSize(t *testing.T) {
	const p = 7
	seen := make([]atomic.Bool, p)
	_, err := Run(p, func(c *Comm) {
		if c.Size() != p {
			t.Errorf("Size() = %d, want %d", c.Size(), p)
		}
		if seen[c.Rank()].Swap(true) {
			t.Errorf("rank %d executed twice", c.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range seen {
		if !seen[r].Load() {
			t.Errorf("rank %d never executed", r)
		}
	}
}

func TestSendRecvBasic(t *testing.T) {
	_, err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			Send(c, 1, 7, []float64{1, 2, 3})
		} else {
			got := Recv[float64](c, 0, 7)
			if len(got) != 3 || got[0] != 1 || got[2] != 3 {
				t.Errorf("Recv = %v", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	// Distributed-memory discipline: mutating the sent buffer after Send, or
	// the received buffer, must not be visible to the peer.
	_, err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			buf := []int{10, 20}
			Send(c, 1, 0, buf)
			buf[0] = 999 // must not reach rank 1
			c.Barrier()
		} else {
			got := Recv[int](c, 0, 0)
			c.Barrier()
			if got[0] != 10 {
				t.Errorf("sender mutation leaked: got %v", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTagMatching(t *testing.T) {
	_, err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			Send(c, 1, 1, []int{1})
			Send(c, 1, 2, []int{2})
			Send(c, 1, 3, []int{3})
		} else {
			// Receive out of tag order.
			if got := Recv[int](c, 0, 3); got[0] != 3 {
				t.Errorf("tag 3 payload = %v", got)
			}
			if got := Recv[int](c, 0, 1); got[0] != 1 {
				t.Errorf("tag 1 payload = %v", got)
			}
			if got := Recv[int](c, 0, AnyTag); got[0] != 2 {
				t.Errorf("AnyTag payload = %v", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvAnySource(t *testing.T) {
	const p = 5
	_, err := Run(p, func(c *Comm) {
		if c.Rank() == 0 {
			sum := 0
			for i := 1; i < p; i++ {
				sum += Recv[int](c, AnySource, 0)[0]
			}
			if sum != 1+2+3+4 {
				t.Errorf("sum = %d", sum)
			}
		} else {
			Send(c, 0, 0, []int{c.Rank()})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPerPair(t *testing.T) {
	const n = 200
	_, err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				Send(c, 1, 0, []int{i})
			}
		} else {
			for i := 0; i < n; i++ {
				if got := Recv[int](c, 0, 0)[0]; got != i {
					t.Errorf("message %d arrived as %d", i, got)
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRankPanicReported(t *testing.T) {
	_, err := Run(3, func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
		// Other ranks block on rank 1 and must be poisoned, not deadlock.
		defer func() { recover() }()
		Recv[int](c, 1, 0)
	})
	re, ok := err.(*RankError)
	if !ok {
		t.Fatalf("err = %v, want *RankError", err)
	}
	if re.Rank != 1 {
		t.Errorf("failed rank = %d, want 1", re.Rank)
	}
}

func TestBarrier(t *testing.T) {
	const p = 8
	var phase atomic.Int64
	_, err := Run(p, func(c *Comm) {
		phase.Add(1)
		c.Barrier()
		if got := phase.Load(); got != p {
			t.Errorf("rank %d passed barrier with phase=%d, want %d", c.Rank(), got, p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8} {
		for root := 0; root < p; root++ {
			_, err := Run(p, func(c *Comm) {
				var in []int
				if c.Rank() == root {
					in = []int{root, 42, root * 10}
				}
				out := Bcast(c, root, in)
				if len(out) != 3 || out[0] != root || out[1] != 42 || out[2] != root*10 {
					t.Errorf("p=%d root=%d rank=%d: Bcast = %v", p, root, c.Rank(), out)
				}
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestBcastMessageCount(t *testing.T) {
	// A binomial broadcast sends exactly p-1 messages.
	const p = 8
	w, err := Run(p, func(c *Comm) {
		Bcast(c, 0, []byte{1, 2, 3})
	})
	if err != nil {
		t.Fatal(err)
	}
	s := w.Stats()
	if s.Messages != p-1 {
		t.Errorf("Bcast used %d messages, want %d", s.Messages, p-1)
	}
	if s.Broadcasts != 1 {
		t.Errorf("Broadcasts = %d, want 1", s.Broadcasts)
	}
}

func TestGatherVariableLengths(t *testing.T) {
	const p = 5
	_, err := Run(p, func(c *Comm) {
		mine := make([]int, c.Rank()) // rank r contributes r elements, all = r
		for i := range mine {
			mine[i] = c.Rank()
		}
		got := Gather(c, 2, mine)
		if c.Rank() != 2 {
			if got != nil {
				t.Errorf("non-root rank %d got %v", c.Rank(), got)
			}
			return
		}
		for r := 0; r < p; r++ {
			if len(got[r]) != r {
				t.Errorf("block %d has length %d, want %d", r, len(got[r]), r)
			}
			for _, v := range got[r] {
				if v != r {
					t.Errorf("block %d contains %d", r, v)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherRing(t *testing.T) {
	for _, p := range []int{1, 2, 3, 6} {
		_, err := Run(p, func(c *Comm) {
			got := Allgather(c, []int{c.Rank() * 100, c.Rank()})
			if len(got) != p {
				t.Fatalf("p=%d: got %d blocks", p, len(got))
			}
			for r := 0; r < p; r++ {
				if got[r][0] != r*100 || got[r][1] != r {
					t.Errorf("p=%d rank=%d block %d = %v", p, c.Rank(), r, got[r])
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestScatter(t *testing.T) {
	const p = 4
	_, err := Run(p, func(c *Comm) {
		var blocks [][]string
		if c.Rank() == 1 {
			blocks = [][]string{{"a"}, {"b", "b"}, {"c"}, {"d"}}
		}
		got := Scatter(c, 1, blocks)
		want := []string{"a", "bb", "c", "d"}[c.Rank()]
		joined := ""
		for _, s := range got {
			joined += s
		}
		if joined != want {
			t.Errorf("rank %d got %q, want %q", c.Rank(), joined, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallv(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		_, err := Run(p, func(c *Comm) {
			send := make([][]int, p)
			for j := range send {
				// rank i sends [i, j] to rank j, plus i extra elements.
				send[j] = append([]int{c.Rank(), j}, make([]int, c.Rank())...)
			}
			got := Alltoallv(c, send)
			for j := 0; j < p; j++ {
				// got[j] came from rank j and should start with [j, myrank].
				if got[j][0] != j || got[j][1] != c.Rank() {
					t.Errorf("p=%d rank=%d: block from %d = %v", p, c.Rank(), j, got[j][:2])
				}
				if len(got[j]) != 2+j {
					t.Errorf("p=%d rank=%d: block from %d has length %d, want %d",
						p, c.Rank(), j, len(got[j]), 2+j)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestReduceSumAndMax(t *testing.T) {
	const p = 6
	_, err := Run(p, func(c *Comm) {
		data := []int64{int64(c.Rank()), 1}
		sum := Reduce(c, 0, data, SumI64)
		if c.Rank() == 0 {
			if sum[0] != 15 || sum[1] != p {
				t.Errorf("Reduce sum = %v", sum)
			}
		} else if sum != nil {
			t.Errorf("non-root got %v", sum)
		}
		mx := Reduce(c, 3, []int64{int64(c.Rank())}, MaxI64)
		if c.Rank() == 3 && mx[0] != p-1 {
			t.Errorf("Reduce max = %v", mx)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduce(t *testing.T) {
	for _, p := range []int{1, 2, 5} {
		_, err := Run(p, func(c *Comm) {
			got := Allreduce(c, []int64{int64(c.Rank()), 2}, SumI64)
			wantSum := int64(p * (p - 1) / 2)
			if got[0] != wantSum || got[1] != int64(2*p) {
				t.Errorf("p=%d rank=%d: Allreduce = %v", p, c.Rank(), got)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestSendRecvCombined(t *testing.T) {
	const p = 4
	_, err := Run(p, func(c *Comm) {
		next := (c.Rank() + 1) % p
		prev := (c.Rank() - 1 + p) % p
		Send(c, next, 0, []int{c.Rank()})
		got := Recv[int](c, prev, 0)
		if got[0] != prev {
			t.Errorf("rank %d received %d, want %d", c.Rank(), got[0], prev)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsBytesAccounting(t *testing.T) {
	w, err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			Send(c, 1, 0, make([]float64, 100)) // 800 bytes
			Send(c, 1, 1, make([]byte, 7))      // 7 bytes
		} else {
			Recv[float64](c, 0, 0)
			Recv[byte](c, 0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s := w.Stats()
	if s.Messages != 2 {
		t.Errorf("Messages = %d, want 2", s.Messages)
	}
	if s.Bytes != 807 {
		t.Errorf("Bytes = %d, want 807", s.Bytes)
	}
}

// Property: Alltoallv is a transpose — for random block matrices,
// received[j] on rank i equals sent[i] on rank j.
func TestAlltoallvTransposeProperty(t *testing.T) {
	f := func(seedRaw uint8, pRaw uint8) bool {
		p := int(pRaw)%6 + 1
		seed := int(seedRaw)
		// Deterministic "random" payload derived from (src, dst, seed).
		payload := func(src, dst int) []int {
			n := (src+dst+seed)%4 + 1
			out := make([]int, n)
			for i := range out {
				out[i] = src*1000 + dst*10 + i
			}
			return out
		}
		ok := atomic.Bool{}
		ok.Store(true)
		_, err := Run(p, func(c *Comm) {
			send := make([][]int, p)
			for j := range send {
				send[j] = payload(c.Rank(), j)
			}
			got := Alltoallv(c, send)
			for j := 0; j < p; j++ {
				want := payload(j, c.Rank())
				if len(got[j]) != len(want) {
					ok.Store(false)
					return
				}
				for k := range want {
					if got[j][k] != want[k] {
						ok.Store(false)
						return
					}
				}
			}
		})
		return err == nil && ok.Load()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Allgather returns the same blocks on every rank, sorted by rank.
func TestAllgatherConsistencyProperty(t *testing.T) {
	f := func(pRaw uint8) bool {
		p := int(pRaw)%7 + 1
		var mu atomic.Pointer[[]int]
		consistent := atomic.Bool{}
		consistent.Store(true)
		_, err := Run(p, func(c *Comm) {
			got := Allgather(c, []int{c.Rank() * 3})
			flat := make([]int, 0, p)
			for _, b := range got {
				flat = append(flat, b...)
			}
			if !sort.IntsAreSorted(flat) {
				consistent.Store(false)
			}
			if prev := mu.Swap(&flat); prev != nil {
				if len(*prev) != len(flat) {
					consistent.Store(false)
				}
			}
		})
		return err == nil && consistent.Load()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
