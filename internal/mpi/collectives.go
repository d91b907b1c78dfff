package mpi

import "fmt"

// Internal tags for collectives. They live in their own (negative) tag space
// so they can never match user point-to-point traffic. Collectives are
// matched by call order per communicator, as in MPI: all ranks must call the
// same collectives in the same order. Per-pair FIFO delivery then guarantees
// that successive collectives of the same kind cannot mix messages.
const (
	tagBarrierUp = -2 - iota
	tagBarrierDown
	tagBcast
	tagGather
	tagAllgather
	tagAlltoall
	tagReduce
	tagScatter
)

// Barrier blocks until every rank in the world has entered it. It is
// implemented as a gather of tokens to rank 0 followed by a binomial-tree
// release, the way flat MPI barriers are.
func (c *Comm) Barrier() {
	p := c.world.size
	if c.rank == 0 {
		c.world.stats.Barriers.Add(1)
		for i := 1; i < p; i++ {
			Recv[byte](c, AnySource, tagBarrierUp)
		}
	} else {
		Send(c, 0, tagBarrierUp, []byte{1})
	}
	bcastTree(c, 0, tagBarrierDown, []byte{1})
}

// Bcast distributes data from root to every rank using a binomial tree
// (log p rounds, p-1 messages), the standard MPI implementation. Every rank
// must call it; non-root ranks pass their (ignored) input and all ranks
// receive the root's data as the return value.
func Bcast[T any](c *Comm, root int, data []T) []T {
	if c.rank == root {
		c.world.stats.Broadcasts.Add(1)
	}
	return bcastTree(c, root, tagBcast, data)
}

// bcastTree is the binomial-tree broadcast shared by Bcast and Barrier.
func bcastTree[T any](c *Comm, root, tag int, data []T) []T {
	p := c.world.size
	rel := (c.rank - root + p) % p
	mask := 1
	for mask < p {
		if rel&mask != 0 {
			src := (rel - mask + root) % p
			data = Recv[T](c, src, tag)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < p {
			dst := (rel + mask + root) % p
			Send(c, dst, tag, data)
		}
		mask >>= 1
	}
	return data
}

// Gather collects each rank's data at root. On root the result has one
// entry per rank, in rank order (Gatherv semantics: lengths may differ);
// on other ranks it is nil.
func Gather[T any](c *Comm, root int, data []T) [][]T {
	if c.rank != root {
		Send(c, root, tagGather, data)
		return nil
	}
	c.world.stats.Gathers.Add(1)
	p := c.world.size
	out := make([][]T, p)
	own := make([]T, len(data))
	copy(own, data)
	out[root] = own
	for i := 0; i < p; i++ {
		if i == root {
			continue
		}
		out[i] = Recv[T](c, i, tagGather)
	}
	return out
}

// Allgather gives every rank a copy of every rank's data, in rank order,
// using the ring algorithm (p-1 rounds of neighbor exchange).
func Allgather[T any](c *Comm, data []T) [][]T {
	if c.rank == 0 {
		c.world.stats.Gathers.Add(1)
	}
	p := c.world.size
	blocks := make([][]T, p)
	own := make([]T, len(data))
	copy(own, data)
	blocks[c.rank] = own
	if p == 1 {
		return blocks
	}
	next := (c.rank + 1) % p
	prev := (c.rank - 1 + p) % p
	for s := 1; s < p; s++ {
		sendIdx := (c.rank - s + 1 + p) % p
		recvIdx := (c.rank - s + p) % p
		Send(c, next, tagAllgather, blocks[sendIdx])
		blocks[recvIdx] = Recv[T](c, prev, tagAllgather)
	}
	return blocks
}

// Scatter distributes blocks[i] from root to rank i and returns the calling
// rank's block. Only root's blocks argument is consulted; it must have
// exactly world-size entries there.
func Scatter[T any](c *Comm, root int, blocks [][]T) []T {
	p := c.world.size
	if c.rank == root {
		if len(blocks) != p {
			panic(fmt.Sprintf("mpi: Scatter needs %d blocks, got %d", p, len(blocks)))
		}
		for i := 0; i < p; i++ {
			if i == root {
				continue
			}
			Send(c, i, tagScatter, blocks[i])
		}
		own := make([]T, len(blocks[root]))
		copy(own, blocks[root])
		return own
	}
	return Recv[T](c, root, tagScatter)
}

// Alltoallv performs a personalized all-to-all exchange: rank i sends
// send[j] to rank j and receives rank j's send[i]. Blocks may have
// different lengths. The pairwise-exchange algorithm runs p-1 concurrent
// rounds, which is exactly the "lots of concurrent transfers among node
// pairs" structure the communication-avoiding reader relies on.
func Alltoallv[T any](c *Comm, send [][]T) [][]T {
	p := c.world.size
	if len(send) != p {
		panic(fmt.Sprintf("mpi: Alltoallv needs %d send blocks, got %d", p, len(send)))
	}
	if c.rank == 0 {
		c.world.stats.Alltoalls.Add(1)
	}
	out := make([][]T, p)
	own := make([]T, len(send[c.rank]))
	copy(own, send[c.rank])
	out[c.rank] = own
	for s := 1; s < p; s++ {
		dst := (c.rank + s) % p
		src := (c.rank - s + p) % p
		Send(c, dst, tagAlltoall, send[dst])
		out[src] = Recv[T](c, src, tagAlltoall)
	}
	return out
}

// ReduceOp combines src into dst elementwise; len(dst) == len(src).
type ReduceOp[T any] func(dst, src []T)

// SumI64 adds src into dst.
func SumI64(dst, src []int64) {
	for i, v := range src {
		dst[i] += v
	}
}

// MaxI64 keeps the elementwise maximum in dst.
func MaxI64(dst, src []int64) {
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

// Reduce combines every rank's data elementwise at root using op, via a
// binomial tree (log p rounds). All ranks must pass slices of equal length.
// The combined result is returned on root; other ranks get nil.
func Reduce[T any](c *Comm, root int, data []T, op ReduceOp[T]) []T {
	if c.rank == root {
		c.world.stats.Reduces.Add(1)
	}
	p := c.world.size
	rel := (c.rank - root + p) % p
	acc := make([]T, len(data))
	copy(acc, data)
	for mask := 1; mask < p; mask <<= 1 {
		if rel&mask != 0 {
			dst := (rel - mask + root) % p
			Send(c, dst, tagReduce, acc)
			return nil
		}
		if rel+mask < p {
			src := (rel + mask + root) % p
			part := Recv[T](c, src, tagReduce)
			if len(part) != len(acc) {
				panic(fmt.Sprintf("mpi: Reduce length mismatch: %d vs %d", len(part), len(acc)))
			}
			op(acc, part)
		}
	}
	if c.rank == root {
		return acc
	}
	return nil
}

// Allreduce is Reduce to rank 0 followed by a broadcast of the result.
func Allreduce[T any](c *Comm, data []T, op ReduceOp[T]) []T {
	res := Reduce(c, 0, data, op)
	return bcastTree(c, 0, tagBcast, res)
}
