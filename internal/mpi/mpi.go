// Package mpi provides an in-process message-passing runtime with MPI-like
// semantics: a fixed set of ranks executing the same function, point-to-point
// sends and receives with tag matching, and the usual collectives built on
// top of point-to-point messages.
//
// Ranks are goroutines, but the package enforces distributed-memory
// discipline: every payload is copied on send, so one rank can never observe
// another rank's mutations through a received buffer. All traffic is counted
// (messages, bytes, broadcasts, exchange rounds), which is what the DASSA
// communication-avoiding analysis needs: the paper's claims are about
// message and broadcast counts, and those are measured exactly here.
package mpi

import (
	"fmt"
	"sync"
)

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

type message struct {
	src     int
	tag     int
	payload any // always an owned copy
	bytes   int64
}

// mailbox is one rank's incoming message queue with (src, tag) matching.
// Arrival order is preserved, so messages between a fixed (src, dst) pair
// are never reordered (MPI's non-overtaking rule).
type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []message
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(m message) {
	mb.mu.Lock()
	mb.queue = append(mb.queue, m)
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// take removes and returns the first message matching (src, tag), blocking
// until one arrives.
func (mb *mailbox) take(src, tag int) message {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		for i, m := range mb.queue {
			if m.tag == poisonTag {
				// A rank died: every pending and future Recv must fail, so
				// the poison matches anything and is left in the queue.
				return m
			}
			if (src == AnySource || m.src == src) && (tag == AnyTag || m.tag == tag) {
				mb.queue = append(mb.queue[:i], mb.queue[i+1:]...)
				return m
			}
		}
		mb.cond.Wait()
	}
}

// World is a group of ranks that can communicate. Create one with Run.
type World struct {
	size  int
	boxes []*mailbox
	stats Stats
}

// Comm is one rank's handle to the world. It is only valid inside the
// function passed to Run, and must not be shared across ranks.
type Comm struct {
	rank  int
	world *World
}

// Rank returns the calling rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.world.size }

// World returns the communicator's world (for stats inspection).
func (c *Comm) World() *World { return c.world }

// RankError reports a panic that occurred on a rank during Run.
type RankError struct {
	Rank int
	Err  any
	// TraceID, when non-empty, ties the failure to the distributed request
	// trace it occurred under; engines stamp it after Run returns.
	TraceID string
}

func (e *RankError) Error() string {
	if e.TraceID != "" {
		return fmt.Sprintf("mpi: rank %d panicked: %v (trace %s)", e.Rank, e.Err, e.TraceID)
	}
	return fmt.Sprintf("mpi: rank %d panicked: %v", e.Rank, e.Err)
}

// Unwrap exposes the recovered panic value when it is an error, so
// errors.Is/As see through a failed parallel run to the root cause (e.g. a
// missing-file sentinel raised inside a reader).
func (e *RankError) Unwrap() error {
	if err, ok := e.Err.(error); ok {
		return err
	}
	return nil
}

// Run starts size ranks, each executing f with its own Comm, and waits for
// all of them to finish. If any rank panics, Run recovers it and returns a
// *RankError for the lowest-numbered failed rank; other ranks may then be
// blocked forever, so Run only waits for non-failed ranks when there is no
// error. The returned World carries the traffic statistics.
func Run(size int, f func(c *Comm)) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpi: world size must be positive, got %d", size)
	}
	w := &World{size: size, boxes: make([]*mailbox, size)}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	errs := make([]*RankError, size)
	var wg sync.WaitGroup
	wg.Add(size)
	for r := 0; r < size; r++ {
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = &RankError{Rank: rank, Err: p}
					// Unblock ranks waiting on this one so the world can
					// drain instead of deadlocking. A poisoned message will
					// panic any matching Recv on other ranks.
					for i := 0; i < size; i++ {
						if i != rank {
							w.boxes[i].put(message{src: rank, tag: poisonTag})
						}
					}
				}
			}()
			f(&Comm{rank: rank, world: w})
		}(r)
	}
	wg.Wait()
	var cascade *RankError
	for _, e := range errs {
		if e == nil {
			continue
		}
		if _, isCascade := e.Err.(poisonPanic); isCascade {
			if cascade == nil {
				cascade = e
			}
			continue
		}
		return w, e // an original failure, not a knock-on poison panic
	}
	if cascade != nil {
		return w, cascade
	}
	return w, nil
}

// poisonPanic is the panic value raised by Recv when a peer rank has died.
type poisonPanic string

func (p poisonPanic) String() string { return string(p) }

// poisonTag marks messages injected when a rank dies. Receiving one panics,
// which cascades the failure instead of deadlocking the world.
const poisonTag = -0x7eadbeef

// Send delivers a copy of data to rank dst with the given tag. It is
// buffered (eager): it never blocks waiting for the matching Recv. Element
// values are copied shallowly, so payload element types should be value
// types (numbers, small structs) to preserve distributed-memory semantics.
func Send[T any](c *Comm, dst, tag int, data []T) {
	if dst < 0 || dst >= c.world.size {
		panic(fmt.Sprintf("mpi: Send to invalid rank %d (world size %d)", dst, c.world.size))
	}
	cp := make([]T, len(data))
	copy(cp, data)
	nbytes := payloadBytes(cp)
	c.world.stats.count(1, nbytes)
	c.world.boxes[dst].put(message{src: c.rank, tag: tag, payload: cp, bytes: nbytes})
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload. src may be AnySource and tag may be AnyTag.
// The payload type must match the Send exactly; a mismatch panics.
func Recv[T any](c *Comm, src, tag int) []T {
	m := c.world.boxes[c.rank].take(src, tag)
	if m.tag == poisonTag {
		panic(poisonPanic(fmt.Sprintf("mpi: rank %d died while rank %d waited for a message", m.src, c.rank)))
	}
	p, ok := m.payload.([]T)
	if !ok {
		panic(fmt.Sprintf("mpi: rank %d received %T from rank %d (tag %d), caller expected []%T",
			c.rank, m.payload, m.src, m.tag, *new(T)))
	}
	return p
}
