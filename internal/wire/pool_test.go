package wire

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"dassa/internal/obs/trace"
	"dassa/internal/testutil/leakcheck"
)

// TestPoolKeepsNothingPastReadChunk: a payload longer than readChunk is
// never drawn from the pool, so it can never be handed back to it: not by
// ReadFrame, not by the result encoder. Only a result is read into a pooled
// buffer, since only a result comes back.
func TestPoolKeepsNothingPastReadChunk(t *testing.T) {
	if _, h := getPayload(readChunk); h == nil {
		t.Fatal("a payload of exactly readChunk bytes is not pooled")
	}
	if _, h := getPayload(readChunk + 1); h != nil {
		t.Fatal("a payload past readChunk came from the pool")
	}
	big, err := EncodeResult(ShardResult{Channels: 1, Samples: readChunk / 8}, make([]float64, readChunk/8))
	if err != nil {
		t.Fatal(err)
	}
	if big.pooled != nil {
		t.Fatalf("a %d-byte result frame was drawn from the pool", len(big.Payload))
	}
	small, err := EncodeResult(ShardResult{Channels: 1, Samples: 512}, make([]float64, 512))
	if err != nil {
		t.Fatal(err)
	}
	if small.pooled == nil {
		t.Fatalf("a %d-byte result frame was not drawn from the pool", len(small.Payload))
	}
	hello := Frame{Type: TypeHello, Payload: bytes.Repeat([]byte{' '}, 4096)}
	for _, tc := range []struct {
		name   string
		f      Frame
		pooled bool
	}{
		{"result past readChunk", big, false},
		{"result", small, true},
		{"envelope", hello, false},
	} {
		got, err := ReadFrame(bytes.NewReader(AppendFrame(nil, tc.f)))
		if err != nil {
			t.Fatal(err)
		}
		if (got.pooled != nil) != tc.pooled || !bytes.Equal(got.Payload, tc.f.Payload) {
			t.Errorf("%s: read back pooled %v, intact %v; want pooled %v, intact", tc.name,
				got.pooled != nil, bytes.Equal(got.Payload, tc.f.Payload), tc.pooled)
		}
	}
}

// TestResultHeaderPastTheSlack: a result whose header outgrows the room in
// front of its values (a traced shard's spans) moves to a larger buffer and
// round-trips like any other.
func TestResultHeaderPastTheSlack(t *testing.T) {
	res := ShardResult{ID: 9, Channels: 2, Samples: 64}
	for i := range 100 {
		res.Spans = append(res.Spans, trace.SpanData{SpanID: uint64(i + 1), Name: "worker.shard", Process: strings.Repeat("w", 40)})
	}
	data := make([]float64, 128)
	for i := range data {
		data[i] = math.Sqrt(float64(i))
	}
	f, err := EncodeResult(res, data)
	if err != nil {
		t.Fatal(err)
	}
	got, vals, err := DecodeResult(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Spans) != 100 || got.ID != 9 {
		t.Fatalf("header came back as id %d with %d spans", got.ID, len(got.Spans))
	}
	for i := range data {
		if vals[i] != data[i] {
			t.Fatalf("value %d = %v, want %v", i, vals[i], data[i])
		}
	}
}

// TestHandBuiltFrameSentTwice: the Conn writer recycles only the payloads
// the package drew from the pool. A hand-built frame sent, then followed by
// pooled results that reuse whatever the writer handed back, arrives intact
// when sent again. One P makes the pool hand back what was just put.
func TestHandBuiltFrameSentTwice(t *testing.T) {
	leakcheck.Check(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ca, cb := pipeConns(t)
	payload := bytes.Repeat([]byte("hand-built frame"), 256) // 4 KiB, a size class
	f := Frame{Type: TypeShardResult, Payload: payload}
	want := bytes.Clone(payload)
	recv := func() Frame {
		t.Helper()
		got, err := cb.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	for send := range 2 {
		if err := ca.Send(f); err != nil {
			t.Fatal(err)
		}
		if got := recv(); !bytes.Equal(got.Payload, want) {
			t.Fatalf("send %d arrived altered", send+1)
		}
		// Pooled results of the same class, which the writer recycles after
		// the hand-built frame.
		for range 3 {
			n := (len(payload) - resultSlack) / 8
			r, err := EncodeResult(ShardResult{Channels: 1, Samples: n}, make([]float64, n))
			if err != nil {
				t.Fatal(err)
			}
			if err := ca.Send(r); err != nil {
				t.Fatal(err)
			}
			recv()
		}
		if !bytes.Equal(f.Payload, want) {
			t.Fatalf("after send %d the hand-built payload was reused", send+1)
		}
	}
}
