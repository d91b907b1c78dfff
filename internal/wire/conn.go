package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"dassa/internal/faults"
)

// Send-side errors.
var (
	// ErrQueueFull reports that the connection's bounded send queue is at
	// capacity: the peer is not draining fast enough and the caller must
	// decide (drop, retry, fail the shard) rather than buffer without bound.
	ErrQueueFull = errors.New("wire: send queue full")
	// ErrConnClosed reports a send or receive on a closed connection.
	ErrConnClosed = errors.New("wire: connection closed")
)

// DefaultSendQueue bounds a connection's outgoing frame queue. Shard
// results are large and heartbeats are tiny; 64 outstanding frames is far
// beyond a healthy conn's depth while still bounding a stalled peer's cost.
const DefaultSendQueue = 64

// FaultConfig injects wire-level chaos into a connection, reusing the
// storage fault injector's deterministic (seed, label) schedule: the label
// plays the role a file path plays for storage faults. A transient fault
// drops the frame (the bytes never leave); a corrupt fault writes a
// partial frame and then severs the connection — the two failure shapes a
// real network shows (loss, and a peer dying mid-message). ReadDelay
// becomes a send delay.
type FaultConfig struct {
	Injector *faults.Injector
	Label    string
}

// Conn wraps a net.Conn with the frame codec and a bounded, asynchronous
// send queue: Send never blocks on the network (it fails fast with
// ErrQueueFull instead), and one writer goroutine preserves frame order.
// Recv reads synchronously on the caller's goroutine. Safe for concurrent
// Send from many goroutines; Recv must be called from one.
type Conn struct {
	nc    net.Conn
	sendq chan Frame

	mu     sync.Mutex
	closed bool

	writerDone chan struct{}
	// writeErr records the first writer failure; later Sends surface it.
	writeErr error
	werrMu   sync.Mutex

	fault FaultConfig
}

// NewConn wraps nc. queue ≤ 0 uses DefaultSendQueue. The returned Conn owns
// nc: Close closes it and reaps the writer goroutine.
func NewConn(nc net.Conn, queue int) *Conn {
	if queue <= 0 {
		queue = DefaultSendQueue
	}
	c := &Conn{
		nc:         nc,
		sendq:      make(chan Frame, queue),
		writerDone: make(chan struct{}),
	}
	go c.writer()
	return c
}

// SetFaults installs wire-level fault injection (chaos tests only).
// Must be called before any Send.
func (c *Conn) SetFaults(fc FaultConfig) *Conn {
	c.fault = fc
	return c
}

// RemoteAddr exposes the peer address for logs.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// writer drains the send queue in order until the queue closes or a write
// fails. After a failure it keeps draining (discarding) so senders never
// block, and records the error for Send to surface. A frame drawn from the
// pool goes back to it once written or dropped: Send hands it over.
func (c *Conn) writer() {
	defer close(c.writerDone)
	for f := range c.sendq {
		if c.failed() == nil { // after the first failure, drain and discard
			if err := c.writeFrame(f); err != nil {
				c.werrMu.Lock()
				c.writeErr = err
				c.werrMu.Unlock()
			}
		}
		Recycle(f)
	}
}

// writeFrame performs one physical frame write, applying injected faults.
func (c *Conn) writeFrame(f Frame) error {
	if in := c.fault.Injector; in != nil {
		if d := in.ReadDelay(c.fault.Label); d > 0 {
			time.Sleep(d)
		}
		switch err := in.ReadFault(c.fault.Label); {
		case errors.Is(err, faults.ErrTransient):
			return nil // frame dropped on the floor
		case err != nil:
			// Permanent fault: partial write, then sever the connection —
			// the peer sees a truncated frame and a dead socket.
			buf := AppendFrame(nil, f)
			half := len(buf) / 2
			n, _ := c.nc.Write(buf[:half])
			bytesOut.Add(int64(n))
			_ = c.nc.Close()
			return fmt.Errorf("wire: injected partial write: %w", err)
		}
	}
	return WriteFrame(c.nc, f)
}

func (c *Conn) failed() error {
	c.werrMu.Lock()
	defer c.werrMu.Unlock()
	return c.writeErr
}

// Send enqueues one frame. It fails fast: ErrQueueFull when the bounded
// queue is at capacity, ErrConnClosed after Close, or the writer's first
// network error once one has happened. A queued frame drawn from the pool
// (a result EncodeResult or ResultBuf built) is the writer's from then on:
// the caller must not touch its payload again.
func (c *Conn) Send(f Frame) error {
	if err := c.failed(); err != nil {
		return err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrConnClosed
	}
	// Enqueue under the lock so Close cannot close the channel between the
	// check and the send.
	select {
	case c.sendq <- f:
		c.mu.Unlock()
		return nil
	default:
		c.mu.Unlock()
		return ErrQueueFull
	}
}

// SendEnvelope JSON-encodes v and enqueues it as a frame of type t.
func (c *Conn) SendEnvelope(t Type, v any) error {
	f, err := Encode(t, v)
	if err != nil {
		return err
	}
	return c.Send(f)
}

// Recv reads the next frame. It blocks until a frame arrives, the peer
// closes (io.EOF), or the connection errors.
func (c *Conn) Recv() (Frame, error) {
	return ReadFrame(c.nc)
}

// SetReadDeadline bounds the next Recv (handshakes, heartbeat staleness).
func (c *Conn) SetReadDeadline(t time.Time) error { return c.nc.SetReadDeadline(t) }

// Close shuts the connection down: the send queue stops accepting, the
// writer drains what was already queued, and the socket closes. Idempotent.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.sendq)
	c.mu.Unlock()
	<-c.writerDone
	return c.nc.Close()
}

// Abort severs the socket without draining the send queue — for reaping a
// peer declared dead: pending frames to a corpse are not worth writing.
func (c *Conn) Abort() {
	_ = c.nc.Close() // unblocks Recv and fails the writer
	_ = c.Close()
}
