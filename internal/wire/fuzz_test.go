package wire

import (
	"bytes"
	"math"
	"testing"
)

// FuzzWireDecode feeds arbitrary bytes to the frame decoder and, when a
// frame survives, to the envelope decoders behind it. The contract under
// fuzz: errors are fine, panics are not, and a hostile length field must
// not make the decoder allocate unboundedly ahead of the bytes actually
// present (enforced here by the chunked reader + testing's OOM watchdog).
func FuzzWireDecode(f *testing.F) {
	// Valid frames of each envelope kind seed the corpus so mutation
	// explores the JSON and result-blob paths, not just the header.
	hello, _ := Encode(TypeHello, Hello{From: "coord", Version: Version})
	f.Add(AppendFrame(nil, hello))
	req, _ := Encode(TypeShardRequest, ShardRequest{
		ID: 1, Shard: 0, Op: "localsimi",
		Files: []FileSpec{{Path: "a.dasf", NumChannels: 4, NumSamples: 8, Timestamp: 170728224510}},
		ChLo:  0, ChHi: 4, T0: 0, T1: 8, Params: []byte(`{"m":2,"k":1,"l":1,"stride":2}`),
	})
	f.Add(AppendFrame(nil, req))
	res, _ := EncodeResult(ShardResult{ID: 1, Channels: 2, Samples: 2,
		Gaps: []Gap{{File: "a.dasf", ChHi: 1, THi: 2}}}, []float64{1, 2, math.NaN(), 4})
	f.Add(AppendFrame(nil, res))
	// Trace-bearing seeds: the omitempty trace fields must mutate like any
	// other envelope content without ever panicking a pre-trace decoder.
	treq, _ := Encode(TypeShardRequest, ShardRequest{
		ID: 2, Shard: 1, Op: "read", ChLo: 0, ChHi: 2, T0: 0, T1: 4,
		TraceID: "4be1a7c0ffee4be1a7c0ffee4be1a7c0", ParentSpan: 0xdeadbeef,
	})
	f.Add(AppendFrame(nil, treq))
	tres, _ := EncodeResult(ShardResult{ID: 2, Shard: 1, Channels: 1, Samples: 2,
		Spans: []Span{{SpanID: 7, Parent: 3, Name: "worker.shard", Process: "w1",
			StartUnixNano: 1700000000, DurNS: 42, Status: "error",
			Attrs: []SpanAttr{{K: "shard", V: "1"}}}}}, []float64{1, 2})
	f.Add(AppendFrame(nil, tres))
	cancel, _ := Encode(TypeCancel, Cancel{ID: 9})
	f.Add(AppendFrame(nil, cancel))
	f.Add([]byte{magic0, magic1, Version, byte(TypeHeartbeat), 0, 0, 0, 0})
	// Hostile header: plausible prefix, enormous declared length.
	f.Add([]byte{magic0, magic1, Version, byte(TypeShardResult), 0x03, 0xff, 0xff, 0xff, 1, 2, 3})
	// Hostile shape: 2^61×1 cells, whose byte count wraps to the empty data
	// block's length (once a make-sized panic in DecodeResult).
	f.Add(AppendFrame(nil, overflowResult(1<<61, 1)))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			fr, err := ReadFrame(r)
			if err != nil {
				return
			}
			switch fr.Type {
			case TypeShardResult:
				res, vals, err := DecodeResult(fr)
				if err == nil && res.Channels*res.Samples != len(vals) {
					t.Fatalf("decoded result shape %d×%d != %d values",
						res.Channels, res.Samples, len(vals))
				}
			case TypeShardRequest:
				var v ShardRequest
				_ = DecodeInto(fr, &v)
			case TypeHello:
				var v Hello
				_ = DecodeInto(fr, &v)
			case TypeHeartbeat:
				var v Heartbeat
				_ = DecodeInto(fr, &v)
			case TypeCancel:
				var v Cancel
				_ = DecodeInto(fr, &v)
			case TypeShardError:
				var v ShardError
				_ = DecodeInto(fr, &v)
			}
		}
	})
}
