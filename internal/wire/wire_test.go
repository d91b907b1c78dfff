package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"dassa/internal/faults"
	"dassa/internal/testutil/leakcheck"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := []Frame{
		{Type: TypeHello, Payload: []byte(`{"from":"coord","version":1}`)},
		{Type: TypeHeartbeat, Payload: nil},
		{Type: TypeCancel, Payload: []byte(`{"id":7}`)},
	}
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatalf("write %s: %v", f.Type, err)
		}
	}
	for _, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read %s: %v", want.Type, err)
		}
		if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("round trip: got %v %q, want %v %q", got.Type, got.Payload, want.Type, want.Payload)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("empty stream: want io.EOF, got %v", err)
	}
}

func TestReadFrameRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"bad magic":   {0x00, 0x00, 1, 1, 0, 0, 0, 0},
		"bad version": {magic0, magic1, 99, 1, 0, 0, 0, 0},
		"bad type":    {magic0, magic1, Version, 0, 0, 0, 0, 0},
		"type high":   {magic0, magic1, Version, 200, 0, 0, 0, 0},
		"oversized":   {magic0, magic1, Version, 1, 0xff, 0xff, 0xff, 0xff},
	}
	for name, b := range cases {
		if _, err := ReadFrame(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: decode accepted %x", name, b)
		}
	}
	// Truncated payload: header declares 100 bytes, stream has 3.
	hdr := []byte{magic0, magic1, Version, byte(TypeHello), 0, 0, 0, 100, 'a', 'b', 'c'}
	if _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated payload: want ErrUnexpectedEOF, got %v", err)
	}
	// Truncated header.
	if _, err := ReadFrame(bytes.NewReader(hdr[:4])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated header: want ErrUnexpectedEOF, got %v", err)
	}
}

func TestResultRoundTrip(t *testing.T) {
	data := []float64{1, 2.5, math.NaN(), -4}
	res := ShardResult{
		ID: 3, Shard: 1, Channels: 2, Samples: 2,
		Gaps:  []Gap{{Member: 0, File: "a.dasf", ChLo: 1, ChHi: 2, TLo: 0, THi: 2}},
		Trace: Trace{Opens: 2, Reads: 4, BytesRead: 64},
	}
	f, err := EncodeResult(res, data)
	if err != nil {
		t.Fatal(err)
	}
	got, gotData, err := DecodeResult(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 3 || got.Shard != 1 || got.Channels != 2 || got.Samples != 2 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Gaps) != 1 || got.Gaps[0].File != "a.dasf" {
		t.Fatalf("gaps mismatch: %+v", got.Gaps)
	}
	for i := range data {
		same := gotData[i] == data[i] || (math.IsNaN(gotData[i]) && math.IsNaN(data[i]))
		if !same {
			t.Fatalf("data[%d]: got %v want %v", i, gotData[i], data[i])
		}
	}
}

func TestEncodeResultShapeMismatch(t *testing.T) {
	if _, err := EncodeResult(ShardResult{Channels: 2, Samples: 3}, make([]float64, 5)); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestDecodeResultRejectsCorruptHeader(t *testing.T) {
	f, err := EncodeResult(ShardResult{ID: 1, Channels: 1, Samples: 2}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Header length pointing past the payload.
	bad := Frame{Type: TypeShardResult, Payload: append([]byte{0xff, 0xff, 0xff, 0xff}, f.Payload[4:]...)}
	if _, _, err := DecodeResult(bad); err == nil {
		t.Fatal("oversized header length accepted")
	}
	// Data length not matching the declared shape.
	short := Frame{Type: TypeShardResult, Payload: f.Payload[:len(f.Payload)-8]}
	if _, _, err := DecodeResult(short); err == nil {
		t.Fatal("short data block accepted")
	}
}

// overflowResult is a result frame whose declared shape overflows the
// channels×samples×8 byte count: the header alone, no data block.
func overflowResult(channels, samples int) Frame {
	hdr := fmt.Sprintf(`{"id":1,"channels":%d,"samples":%d}`, channels, samples)
	payload := binary.BigEndian.AppendUint32(nil, uint32(len(hdr)))
	return Frame{Type: TypeShardResult, Payload: append(payload, hdr...)}
}

// TestDecodeResultRejectsOverflowingShape: a shape whose byte count wraps
// to the (empty) data block's length must be refused with ErrBadFrame
// before it sizes an allocation — it used to panic the coordinator in make.
func TestDecodeResultRejectsOverflowingShape(t *testing.T) {
	for _, tc := range []struct{ channels, samples int }{
		{1 << 61, 1},       // ×8 wraps to 0
		{1, 1 << 61},       // same, transposed
		{1 << 32, 1 << 32}, // the product itself wraps to 0
		{1 << 31, 1 << 30}, // ×8 wraps to 0 after a representable product
		{MaxPayload/8 + 1, 1},
		{-1, 0},
		{0, -1},
	} {
		_, data, err := DecodeResult(overflowResult(tc.channels, tc.samples))
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("%d×%d: err = %v (%d values), want ErrBadFrame", tc.channels, tc.samples, err, len(data))
		}
	}
	// Degenerate but honest shapes still decode.
	for _, tc := range []struct{ channels, samples int }{{0, 0}, {0, 1 << 40}, {1 << 40, 0}} {
		if _, data, err := DecodeResult(overflowResult(tc.channels, tc.samples)); err != nil || len(data) != 0 {
			t.Errorf("%d×%d: %v (%d values), want an empty result", tc.channels, tc.samples, err, len(data))
		}
	}
}

// pipeConns returns a connected Conn pair over an in-memory duplex pipe.
func pipeConns(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	ca, cb := NewConn(a, 8), NewConn(b, 8)
	t.Cleanup(func() { ca.Abort(); cb.Abort() })
	return ca, cb
}

func TestConnSendRecv(t *testing.T) {
	leakcheck.Check(t)
	ca, cb := pipeConns(t)
	if err := ca.SendEnvelope(TypeCancel, Cancel{ID: 42}); err != nil {
		t.Fatal(err)
	}
	f, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	var c Cancel
	if err := DecodeInto(f, &c); err != nil || c.ID != 42 {
		t.Fatalf("got %+v, %v", c, err)
	}
}

func TestConnQueueBound(t *testing.T) {
	leakcheck.Check(t)
	// net.Pipe is fully synchronous: with no reader, every write blocks, so
	// the queue fills deterministically.
	a, b := net.Pipe()
	ca := NewConn(a, 2)
	defer func() { ca.Abort(); b.Close() }()
	var full bool
	for i := 0; i < 10; i++ {
		if err := ca.Send(Frame{Type: TypeHeartbeat}); errors.Is(err, ErrQueueFull) {
			full = true
			break
		}
	}
	if !full {
		t.Fatal("bounded queue never reported ErrQueueFull")
	}
}

func TestConnSendAfterClose(t *testing.T) {
	leakcheck.Check(t)
	a, b := net.Pipe()
	drained := make(chan struct{})
	defer func() { <-drained }() // declared first: joins after b.Close severs the pipe
	defer b.Close()
	ca := NewConn(a, 2)
	go func() { // drain so Close's queue flush can finish
		defer close(drained)
		for {
			if _, err := ReadFrame(b); err != nil {
				return
			}
		}
	}()
	if err := ca.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ca.Send(Frame{Type: TypeHeartbeat}); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("send after close: want ErrConnClosed, got %v", err)
	}
	if err := ca.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestConnFaultInjection(t *testing.T) {
	leakcheck.Check(t)
	// A transient fault drops exactly the first frame on this label (streak
	// length 1 at probability 1 with max 1), so the receiver sees only the
	// second send.
	inj := faults.New(faults.Config{Seed: 7, TransientProb: 1, MaxTransient: 1})
	a, b := net.Pipe()
	ca := NewConn(a, 8).SetFaults(FaultConfig{Injector: inj, Label: "conn0"})
	cb := NewConn(b, 8)
	defer func() { ca.Abort(); cb.Abort() }()

	if err := ca.SendEnvelope(TypeCancel, Cancel{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := ca.SendEnvelope(TypeCancel, Cancel{ID: 2}); err != nil {
		t.Fatal(err)
	}
	_ = cb.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	var c Cancel
	if err := DecodeInto(f, &c); err != nil || c.ID != 2 {
		t.Fatalf("dropped frame not dropped: got %+v %v", c, err)
	}
	if inj.Counters().Transient != 1 {
		t.Fatalf("injector counted %d transients, want 1", inj.Counters().Transient)
	}
}

func TestConnPartialWriteSeversConn(t *testing.T) {
	leakcheck.Check(t)
	inj := faults.New(faults.Config{Seed: 1, Corrupt: []string{"conn1"}})
	a, b := net.Pipe()
	ca := NewConn(a, 8).SetFaults(FaultConfig{Injector: inj, Label: "conn1"})
	cb := NewConn(b, 8)
	defer func() { ca.Abort(); cb.Abort() }()

	if err := ca.SendEnvelope(TypeCancel, Cancel{ID: 1}); err != nil {
		t.Fatal(err)
	}
	_ = cb.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := cb.Recv(); err == nil {
		t.Fatal("peer decoded a frame across an injected partial write")
	}
	// The sender's side observed the failure too: later sends surface it.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := ca.Send(Frame{Type: TypeHeartbeat}); err != nil && !errors.Is(err, ErrQueueFull) {
			return // writer recorded the injected failure
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("sender never surfaced the injected write failure")
}
