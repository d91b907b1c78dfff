package faults

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// RetryPolicy bounds how a transient failure is retried: attempt count,
// exponential backoff with jitter, and a per-operation deadline. The zero
// value performs exactly one attempt (no retries) — the seed repository's
// behaviour.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first attempt included).
	// Values < 1 mean 1.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; it doubles per
	// retry. Defaults to 200µs when retries are enabled.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 50ms).
	MaxDelay time.Duration
	// Jitter adds up to this fraction of the delay, randomly, to decorrelate
	// concurrent retriers (default 0.2).
	Jitter float64
	// OpDeadline bounds one Do call end to end, backoff included. Zero
	// means no per-op deadline.
	OpDeadline time.Duration
}

// WithRetries returns a policy making n retries (n+1 attempts) with the
// default backoff shape.
func WithRetries(n int) RetryPolicy {
	return RetryPolicy{MaxAttempts: n + 1}
}

// Do runs op, retrying transient failures under the policy. It returns the
// number of attempts made and op's final error. Permanent errors (anything
// IsTransient rejects) are returned immediately.
func (p RetryPolicy) Do(op func() error) (attempts int, err error) {
	return p.DoContext(context.Background(), op)
}

// DoContext is Do bound to a context: cancellation is honored between
// attempts and during backoff sleeps, so a stuck retry loop unwinds as soon
// as the caller gives up. A context that is already dead returns its error
// without running op; a context that dies mid-backoff cuts the sleep short
// and returns ctx.Err() wrapping the last attempt's failure. Context errors
// are permanent by definition — IsTransient rejects them — so an op that
// surfaces one is never retried.
func (p RetryPolicy) DoContext(ctx context.Context, op func() error) (attempts int, err error) {
	maxAtt := p.MaxAttempts
	if maxAtt < 1 {
		maxAtt = 1
	}
	delay := p.BaseDelay
	if delay <= 0 {
		delay = 200 * time.Microsecond
	}
	maxDelay := p.MaxDelay
	if maxDelay <= 0 {
		maxDelay = 50 * time.Millisecond
	}
	jitter := p.Jitter
	if jitter <= 0 {
		jitter = 0.2
	}
	if cerr := ctx.Err(); cerr != nil {
		return 0, cerr
	}
	start := time.Now()
	for attempts = 1; ; attempts++ {
		err = op()
		if err == nil || !IsTransient(err) || attempts >= maxAtt {
			return attempts, err
		}
		if p.OpDeadline > 0 && time.Since(start) >= p.OpDeadline {
			return attempts, fmt.Errorf("faults: retry deadline %v exceeded after %d attempts: %w",
				p.OpDeadline, attempts, err)
		}
		t := time.NewTimer(delay + time.Duration(rand.Float64()*jitter*float64(delay)))
		select {
		case <-ctx.Done():
			t.Stop()
			return attempts, fmt.Errorf("%w (after %d attempts, last error: %w)", ctx.Err(), attempts, err)
		case <-t.C:
		}
		delay = min(delay*2, maxDelay)
	}
}
