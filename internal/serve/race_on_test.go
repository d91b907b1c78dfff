//go:build race

package serve

// raceBuild reports that the race detector is on: sync.Pool then drops a
// quarter of its Puts on purpose, so pooled buffers are re-made now and then.
const raceBuild = true
