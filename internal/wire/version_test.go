package wire

import (
	"encoding/json"
	"errors"
	"testing"

	"dassa/internal/obs/trace"
)

func TestCheckVersion(t *testing.T) {
	before := VersionMismatches()
	if err := CheckVersion(Version); err != nil {
		t.Fatalf("matching version rejected: %v", err)
	}
	if got := VersionMismatches(); got != before {
		t.Fatalf("counter moved on a clean handshake: %d → %d", before, got)
	}
	err := CheckVersion(Version + 1)
	if err == nil {
		t.Fatal("mismatched version accepted")
	}
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("error is not a *VersionError: %T", err)
	}
	if ve.Mine != Version || ve.Peer != Version+1 {
		t.Fatalf("VersionError fields wrong: %+v", ve)
	}
	if got := VersionMismatches(); got != before+1 {
		t.Fatalf("mismatch counter = %d, want %d", got, before+1)
	}
}

// TestTraceFieldsBackCompat pins the cross-version story for the trace
// additions: a pre-trace peer's frames (no trace_id/parent_span/spans
// keys) decode into today's structs with zero values, and today's frames
// decode into a pre-trace struct shape with the new keys ignored. Both
// directions ride on omitempty + JSON's unknown-field tolerance; this
// test keeps that from regressing into required fields.
func TestTraceFieldsBackCompat(t *testing.T) {
	// Old → new: the exact header an old worker/coordinator emits.
	oldReq := []byte(`{"id":7,"shard":2,"op":"read","files":[{"path":"a.dasf","num_channels":4,"num_samples":8,"timestamp":1}],"ch_lo":0,"ch_hi":4,"t0":0,"t1":8}`)
	var req ShardRequest
	if err := DecodeInto(Frame{Type: TypeShardRequest, Payload: oldReq}, &req); err != nil {
		t.Fatalf("old request corpus rejected: %v", err)
	}
	if req.TraceID != "" || req.ParentSpan != 0 {
		t.Fatalf("trace fields not zero on an old frame: %q %d", req.TraceID, req.ParentSpan)
	}

	// New → old: a trace-bearing request decoded by a struct predating the
	// fields (stand-in for the old build's ShardRequest).
	newReq, err := json.Marshal(ShardRequest{ID: 7, Op: "read", ChLo: 0, ChHi: 4,
		TraceID: "4be1a7c0ffee4be1a7c0ffee4be1a7c0", ParentSpan: 12345678901234567890})
	if err != nil {
		t.Fatal(err)
	}
	var oldShape struct {
		ID   uint64 `json:"id"`
		Op   string `json:"op"`
		ChHi int    `json:"ch_hi"`
	}
	if err := json.Unmarshal(newReq, &oldShape); err != nil {
		t.Fatalf("old decoder rejects a trace-bearing request: %v", err)
	}
	if oldShape.ID != 7 || oldShape.ChHi != 4 {
		t.Fatalf("old decoder misread a trace-bearing request: %+v", oldShape)
	}

	// ParentSpan uses json ",string": above 2^53 it must round-trip exactly.
	var back ShardRequest
	if err := json.Unmarshal(newReq, &back); err != nil {
		t.Fatal(err)
	}
	if back.ParentSpan != 12345678901234567890 {
		t.Fatalf("parent span lost precision: %d", back.ParentSpan)
	}

	// Results: spans ride the JSON header through EncodeResult/DecodeResult.
	frame, err := EncodeResult(ShardResult{ID: 7, Shard: 2, Channels: 1, Samples: 2,
		Spans: []trace.SpanData{{SpanID: 9, Parent: 3, Name: "worker.shard", Process: "w1", DurNS: 5,
			Attrs: []trace.Attr{{K: "op", V: "read"}}}}}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	res, data, err := DecodeResult(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 2 || len(res.Spans) != 1 || res.Spans[0].Name != "worker.shard" {
		t.Fatalf("spans did not survive the result round-trip: %+v", res.Spans)
	}
	// And an old result header (no spans key) still decodes.
	var oldRes ShardResult
	oldHdr := []byte(`{"id":7,"shard":2,"channels":1,"samples":2,"trace":{"opens":1,"reads":1,"bytes_read":16}}`)
	if err := json.Unmarshal(oldHdr, &oldRes); err != nil {
		t.Fatalf("old result corpus rejected: %v", err)
	}
	if oldRes.Spans != nil {
		t.Fatalf("spans not nil on an old result: %+v", oldRes.Spans)
	}
}
