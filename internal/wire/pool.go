package wire

import (
	"math/bits"
	"sync"
)

// Payload buffers are recycled through one pool of power-of-two size
// classes, 1 KiB up to readChunk. ReadFrame draws a shard result's payload
// from it and the result encoder draws every result frame's; a buffer comes
// back at exactly two points: the Conn writer, once it has written or
// dropped the frame, and Recycle, which the coordinator's merge calls once
// it has decoded the block. Nothing above readChunk is pooled, so a hostile
// frame cannot leave a large buffer parked here, and idle buffers go at the
// next GC.
const (
	minClass = 10 // 1 KiB
	maxClass = 20 // readChunk
)

var payloadPools [maxClass + 1]sync.Pool // indexed by class

// getPayload returns an n-byte buffer and, when n fits a size class, the
// handle that recycles it; otherwise a fresh buffer and a nil handle.
func getPayload(n int) ([]byte, *[]byte) {
	if n <= 1<<(minClass-1) || n > readChunk {
		return make([]byte, n), nil
	}
	c := bits.Len(uint(n - 1)) // the class holding n: 2^(c-1) < n ≤ 2^c
	h, _ := payloadPools[c].Get().(*[]byte)
	if h == nil {
		b := make([]byte, 1<<c)
		h = &b
	}
	return (*h)[:n], h
}

// Recycle hands a frame's payload back to the pool once its holder is done
// with every byte of it: the coordinator's merge, after DecodeValues has
// copied the block out. A frame the package did not draw from the pool (a
// hand-built one, an envelope, one past readChunk) is left to the GC.
func Recycle(f Frame) {
	if h := f.pooled; h != nil {
		payloadPools[bits.Len(uint(cap(*h)-1))].Put(h)
	}
}
