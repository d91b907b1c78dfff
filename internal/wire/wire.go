// Package wire is the cluster's framing layer: length-prefixed binary
// frames over a byte stream, carrying the coordinator↔worker protocol —
// shard requests with absolute deadlines, shard results (JSON header +
// raw float64 payload), cancel frames that poison in-flight shards,
// heartbeats, and a handshake. The decoder is hardened the way the DASF
// parsers are: truncated, oversized, or garbage input errors out; it never
// panics and never allocates more than a bounded chunk ahead of the bytes
// actually read (FuzzWireDecode enforces both).
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync/atomic"
)

// Protocol constants. Version is checked on both sides of the handshake;
// a frame with the wrong magic or version is a hard decode error — there
// is no cross-version negotiation at this scale, just a clean refusal.
const (
	magic0  = 0xDA
	magic1  = 0x55
	Version = 2

	// headerLen is the fixed frame prefix: magic(2) version(1) type(1)
	// length(4, big endian).
	headerLen = 8

	// MaxPayload caps one frame's payload. Shard results dominate: a
	// 64 MiB frame carries an 8M-cell float64 block, far above any shard
	// the coordinator cuts. The decoder rejects larger lengths before
	// allocating anything.
	MaxPayload = 64 << 20

	// readChunk bounds how far ahead of the received bytes the decoder
	// allocates: a frame that declares a huge length but delivers ten
	// bytes costs one chunk, not the declared length.
	readChunk = 1 << 20
)

// Type identifies a frame's payload.
type Type uint8

const (
	// TypeHello opens a connection (coordinator → worker).
	TypeHello Type = 1 + iota
	// TypeWelcome acknowledges a Hello (worker → coordinator).
	TypeWelcome
	// TypeShardRequest dispatches one shard (coordinator → worker).
	TypeShardRequest
	// TypeShardResult returns a computed shard (worker → coordinator).
	TypeShardResult
	// TypeShardError reports a failed or cancelled shard (worker →
	// coordinator).
	TypeShardError
	// TypeCancel poisons every in-flight shard of one request id
	// (coordinator → worker).
	TypeCancel
	// TypeHeartbeat is the worker's liveness beacon (worker → coordinator).
	TypeHeartbeat
	// TypeGoodbye announces an orderly close from either side.
	TypeGoodbye

	typeMax = TypeGoodbye
)

func (t Type) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeWelcome:
		return "welcome"
	case TypeShardRequest:
		return "shard-request"
	case TypeShardResult:
		return "shard-result"
	case TypeShardError:
		return "shard-error"
	case TypeCancel:
		return "cancel"
	case TypeHeartbeat:
		return "heartbeat"
	case TypeGoodbye:
		return "goodbye"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Decode errors. ErrTooLarge and ErrBadFrame classify malformed input;
// io errors (including io.ErrUnexpectedEOF for truncation) pass through.
var (
	ErrBadFrame = errors.New("wire: malformed frame")
	ErrTooLarge = errors.New("wire: frame exceeds MaxPayload")
)

// Frame is one decoded protocol unit.
type Frame struct {
	Type    Type
	Payload []byte
}

// bytesIn / bytesOut count every byte that crossed the wire layer,
// process-wide — the cluster metrics expose them as counters.
var bytesIn, bytesOut atomic.Int64

// BytesIn returns the total bytes read off connections by this process.
func BytesIn() int64 { return bytesIn.Load() }

// BytesOut returns the total bytes written to connections by this process.
func BytesOut() int64 { return bytesOut.Load() }

// AppendFrame encodes f onto buf and returns the extended slice.
func AppendFrame(buf []byte, f Frame) []byte {
	var hdr [headerLen]byte
	hdr[0], hdr[1] = magic0, magic1
	hdr[2] = Version
	hdr[3] = byte(f.Type)
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(f.Payload)))
	buf = append(buf, hdr[:]...)
	return append(buf, f.Payload...)
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxPayload {
		return fmt.Errorf("%w: payload %d bytes", ErrTooLarge, len(f.Payload))
	}
	buf := AppendFrame(make([]byte, 0, headerLen+len(f.Payload)), f)
	n, err := w.Write(buf)
	bytesOut.Add(int64(n))
	return err
}

// ReadFrame decodes one frame from r. A short stream yields io.EOF (clean
// close on a frame boundary) or io.ErrUnexpectedEOF (mid-frame truncation);
// corrupt headers yield ErrBadFrame / ErrTooLarge. The payload is
// allocated in bounded chunks, so a hostile length field costs at most one
// chunk beyond the bytes actually delivered.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [headerLen]byte
	n, err := io.ReadFull(r, hdr[:])
	bytesIn.Add(int64(n))
	if err != nil {
		if err == io.EOF && n == 0 {
			return Frame{}, io.EOF
		}
		if err == io.EOF {
			return Frame{}, io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	if hdr[0] != magic0 || hdr[1] != magic1 {
		return Frame{}, fmt.Errorf("%w: bad magic %02x%02x", ErrBadFrame, hdr[0], hdr[1])
	}
	if hdr[2] != Version {
		return Frame{}, fmt.Errorf("%w: version %d (want %d)", ErrBadFrame, hdr[2], Version)
	}
	t := Type(hdr[3])
	if t == 0 || t > typeMax {
		return Frame{}, fmt.Errorf("%w: unknown type %d", ErrBadFrame, hdr[3])
	}
	length := binary.BigEndian.Uint32(hdr[4:])
	if length > MaxPayload {
		return Frame{}, fmt.Errorf("%w: declared %d bytes", ErrTooLarge, length)
	}
	payload := make([]byte, 0, min(int(length), readChunk))
	for len(payload) < int(length) {
		chunk := min(int(length)-len(payload), readChunk)
		start := len(payload)
		payload = append(payload, make([]byte, chunk)...)
		n, err := io.ReadFull(r, payload[start:])
		bytesIn.Add(int64(n))
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, err
		}
	}
	return Frame{Type: t, Payload: payload}, nil
}

// VersionError reports a handshake peer announcing an incompatible
// protocol version. Versions are single majors; there is no negotiation —
// a mismatch is a clean, typed refusal.
type VersionError struct {
	Mine, Peer int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("wire: peer protocol version %d incompatible with %d", e.Peer, e.Mine)
}

// versionMismatches counts handshakes rejected for a version mismatch,
// process-wide — dassa_wire_version_mismatch_total exposes it.
var versionMismatches atomic.Int64

// VersionMismatches returns how many handshakes this process refused for
// an incompatible peer version.
func VersionMismatches() int64 { return versionMismatches.Load() }

// CheckVersion validates a handshake peer's announced protocol version
// (Hello.Version / Welcome.Version) against ours, counting rejections.
func CheckVersion(peer int) error {
	if peer != Version {
		versionMismatches.Add(1)
		return &VersionError{Mine: Version, Peer: peer}
	}
	return nil
}

// FileSpec names one physical member file of a shard's view — exactly a
// VCA member: the worker reconstructs the virtual array from these and
// reads the file bytes itself (the cluster assumes the DAS archive is on a
// filesystem every worker can reach, the paper's parallel-FS model).
type FileSpec struct {
	Path        string `json:"path"`
	NumChannels int    `json:"num_channels"`
	NumSamples  int    `json:"num_samples"`
	Timestamp   int64  `json:"timestamp"`
}

// Hello opens a connection.
type Hello struct {
	From    string `json:"from"`
	Version int    `json:"version"`
}

// Welcome acknowledges a Hello.
type Welcome struct {
	Worker  string `json:"worker"`
	Version int    `json:"version"`
}

// ShardRequest dispatches one shard of a partitioned analysis. Coordinates
// are absolute over the file set's channel × concatenated-time axes. The
// deadline travels as an absolute wall-clock instant so the worker enforces
// the same budget the coordinator's context carries — the wire half of the
// PR 6 cancellation model.
type ShardRequest struct {
	ID    uint64 `json:"id"`
	Shard int    `json:"shard"`
	// DeadlineUnixNano is the request's absolute deadline (0 = none).
	DeadlineUnixNano int64 `json:"deadline_unix_nano,omitempty"`
	// Op is "read" or a registered analysis (detect.Op), whose parameter
	// block travels opaquely in Params: a new analysis changes nothing here.
	Op     string          `json:"op"`
	Params json.RawMessage `json:"params,omitempty"`
	Files  []FileSpec      `json:"files"`
	// ChLo/ChHi are the shard's core channel rows; Halo extends the read
	// below/above by the stencil's ghost reach so shard borders compute
	// exactly (the worker trims halo rows before replying) — but never past
	// WinChLo/WinChHi, the request window's rows, where the stencil clamps.
	ChLo    int `json:"ch_lo"`
	ChHi    int `json:"ch_hi"`
	Halo    int `json:"halo,omitempty"`
	WinChLo int `json:"win_ch_lo,omitempty"`
	WinChHi int `json:"win_ch_hi"`
	T0      int `json:"t0"`
	T1      int `json:"t1"`
	// TraceID/ParentSpan propagate request tracing across the process
	// boundary: the worker records its shard spans under ParentSpan and
	// ships them back in ShardResult.Spans. Both are omitempty, so frames
	// decode cleanly against peers that predate tracing.
	TraceID    string `json:"trace_id,omitempty"`
	ParentSpan uint64 `json:"parent_span,string,omitempty"`
}

// Gap mirrors dass.Gap on the wire: one NaN-masked rectangle, channels in
// absolute file-set coordinates, samples relative to the request window.
type Gap struct {
	Member int    `json:"member"`
	File   string `json:"file"`
	ChLo   int    `json:"ch_lo"`
	ChHi   int    `json:"ch_hi"`
	TLo    int    `json:"t_lo"`
	THi    int    `json:"t_hi"`
}

// Trace carries the shard's physical-I/O accounting back for the
// coordinator's merged pfs.Trace.
type Trace struct {
	Opens     int64 `json:"opens"`
	Reads     int64 `json:"reads"`
	BytesRead int64 `json:"bytes_read"`
	Retries   int64 `json:"retries,omitempty"`
	Faults    int64 `json:"faults,omitempty"`
	SlowReads int64 `json:"slow,omitempty"`
	Masked    int64 `json:"masked,omitempty"`
}

// SpanAttr is one key/value annotation on a wire Span.
type SpanAttr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// Span mirrors one completed trace span on the wire: the worker's locally
// recorded fragment of a request trace, shipped home in ShardResult.Spans
// so the coordinator can reassemble one cross-process tree. Span IDs ride
// as JSON strings (like the trace package's export) so no consumer rounds
// them through float64.
type Span struct {
	SpanID        uint64     `json:"span_id,string"`
	Parent        uint64     `json:"parent,string,omitempty"`
	Name          string     `json:"name"`
	Process       string     `json:"process,omitempty"`
	StartUnixNano int64      `json:"start_unix_nano"`
	DurNS         int64      `json:"dur_ns"`
	Status        string     `json:"status,omitempty"`
	Attrs         []SpanAttr `json:"attrs,omitempty"`
}

// ShardResult is a completed shard: a JSON header followed by the raw
// row-major float64 block (channels × samples, little endian).
type ShardResult struct {
	ID       uint64 `json:"id"`
	Shard    int    `json:"shard"`
	Channels int    `json:"channels"`
	Samples  int    `json:"samples"`
	Gaps     []Gap  `json:"gaps,omitempty"`
	Trace    Trace  `json:"trace"`
	// Spans is the worker's trace fragment (omitempty: absent both for
	// untraced requests and for peers that predate tracing).
	Spans []Span `json:"spans,omitempty"`
}

// ShardError reports a shard the worker could not complete. Cancelled
// distinguishes a poisoned shard (the coordinator asked for the stop) from
// a genuine failure worth re-dispatching.
type ShardError struct {
	ID        uint64 `json:"id"`
	Shard     int    `json:"shard"`
	Msg       string `json:"msg"`
	Cancelled bool   `json:"cancelled,omitempty"`
}

// Cancel poisons every in-flight shard of one request.
type Cancel struct {
	ID uint64 `json:"id"`
}

// Heartbeat is the worker's periodic liveness beacon.
type Heartbeat struct {
	UnixNano int64 `json:"unix_nano"`
	InFlight int   `json:"in_flight"`
}

// Encode marshals a JSON envelope into a frame of the given type.
func Encode(t Type, v any) (Frame, error) {
	p, err := json.Marshal(v)
	if err != nil {
		return Frame{}, fmt.Errorf("wire: encode %s: %w", t, err)
	}
	return Frame{Type: t, Payload: p}, nil
}

// DecodeInto unmarshals a JSON envelope frame.
func DecodeInto(f Frame, v any) error {
	if err := json.Unmarshal(f.Payload, v); err != nil {
		return fmt.Errorf("%w: %s payload: %w", ErrBadFrame, f.Type, err)
	}
	return nil
}

// EncodeResult builds a ShardResult frame: 4-byte header length, JSON
// header, then data as little-endian float64s.
func EncodeResult(res ShardResult, data []float64) (Frame, error) {
	if res.Channels*res.Samples != len(data) {
		return Frame{}, fmt.Errorf("wire: result shape %d×%d != %d values",
			res.Channels, res.Samples, len(data))
	}
	hdr, err := json.Marshal(res)
	if err != nil {
		return Frame{}, fmt.Errorf("wire: encode result: %w", err)
	}
	payload := make([]byte, 4+len(hdr)+8*len(data))
	binary.BigEndian.PutUint32(payload, uint32(len(hdr)))
	copy(payload[4:], hdr)
	off := 4 + len(hdr)
	for _, v := range data {
		binary.LittleEndian.PutUint64(payload[off:], math.Float64bits(v))
		off += 8
	}
	if len(payload) > MaxPayload {
		return Frame{}, fmt.Errorf("%w: result %d bytes", ErrTooLarge, len(payload))
	}
	return Frame{Type: TypeShardResult, Payload: payload}, nil
}

// DecodeResult parses a ShardResult frame. Every length is validated
// against the payload actually present before any allocation sized by it.
func DecodeResult(f Frame) (ShardResult, []float64, error) {
	var res ShardResult
	if f.Type != TypeShardResult {
		return res, nil, fmt.Errorf("%w: %s is not a shard result", ErrBadFrame, f.Type)
	}
	if len(f.Payload) < 4 {
		return res, nil, fmt.Errorf("%w: short result payload", ErrBadFrame)
	}
	hdrLen := int(binary.BigEndian.Uint32(f.Payload))
	if hdrLen < 0 || hdrLen > len(f.Payload)-4 {
		return res, nil, fmt.Errorf("%w: result header %d bytes of %d", ErrBadFrame, hdrLen, len(f.Payload))
	}
	if err := json.Unmarshal(f.Payload[4:4+hdrLen], &res); err != nil {
		return res, nil, fmt.Errorf("%w: result header: %w", ErrBadFrame, err)
	}
	raw := f.Payload[4+hdrLen:]
	cells, ok := cellCount(res.Channels, res.Samples)
	if !ok || cells*8 != len(raw) {
		return res, nil, fmt.Errorf("%w: result declares %d×%d cells, carries %d bytes",
			ErrBadFrame, res.Channels, res.Samples, len(raw))
	}
	data := make([]float64, cells)
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return res, data, nil
}

// cellCount returns channels×samples for a declared result shape, or false
// when a dimension is negative or the product exceeds what one frame can
// carry (MaxPayload/8 float64s). The bound is checked by division before
// multiplying: a hostile header such as 2^61×1 would otherwise wrap
// channels×samples×8 to 0, match an empty data block, and size a make.
func cellCount(channels, samples int) (int, bool) {
	if channels < 0 || samples < 0 {
		return 0, false
	}
	if samples != 0 && channels > MaxPayload/8/samples {
		return 0, false
	}
	return channels * samples, true
}
