// Package dasf implements the DASF container format, this repository's
// stand-in for the HDF5 files DASSA uses. A DASF data file holds exactly
// what the paper's Figure 4 describes: a global key-value metadata list, an
// optional per-channel key-value metadata list, and one 2D array indexed by
// [channel, time]. A DASF virtual file (the VCA kind) holds only global
// metadata plus the names and extents of member data files, concatenated
// logically along the time axis.
//
// The format supports the two operations DASSA needs from HDF5: cheap
// metadata-only reads (VCA construction and das_search touch no array
// data), and hyperslab reads of channel/time rectangles.
package dasf

import (
	"fmt"
	"sort"
)

// Magic and version identify DASF files.
const (
	Magic   = "DASF"
	Version = 1
)

// Kind distinguishes real data files from virtual (VCA) files.
type Kind uint16

const (
	// KindData is a self-contained file with a 2D array.
	KindData Kind = 0
	// KindVCA is a virtual file: metadata plus member references only.
	KindVCA Kind = 1
)

func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindVCA:
		return "vca"
	default:
		return fmt.Sprintf("Kind(%d)", uint16(k))
	}
}

// DType is the on-disk element type of the array.
type DType uint8

const (
	// Float32 stores samples as 4-byte IEEE floats (DAS instruments record
	// at 32-bit precision; this is the default).
	Float32 DType = 0
	// Float64 stores samples at full double precision.
	Float64 DType = 1
)

// Size returns the element size in bytes.
func (d DType) Size() int {
	switch d {
	case Float32:
		return 4
	case Float64:
		return 8
	default:
		panic(fmt.Sprintf("dasf: unknown dtype %d", uint8(d)))
	}
}

func (d DType) String() string {
	switch d {
	case Float32:
		return "float32"
	case Float64:
		return "float64"
	default:
		return fmt.Sprintf("DType(%d)", uint8(d))
	}
}

// Layout selects how a data file's array region is stored.
type Layout uint8

const (
	// Contiguous stores rows back to back, uncompressed — supports
	// single-call whole-block reads and positioned parallel writes.
	Contiguous Layout = 0
	// ChunkedDeflate stores one deflate-compressed chunk per channel row
	// with a chunk index — HDF5-style chunking. Smaller on disk (DAS noise
	// compresses 2-4×); reads cost one request per channel.
	ChunkedDeflate Layout = 1
)

func (l Layout) String() string {
	switch l {
	case Contiguous:
		return "contiguous"
	case ChunkedDeflate:
		return "chunked-deflate"
	default:
		return fmt.Sprintf("Layout(%d)", uint8(l))
	}
}

// ValueKind tags a metadata value.
type ValueKind uint8

const (
	// StringValue is a UTF-8 string.
	StringValue ValueKind = 0
	// IntValue is a signed 64-bit integer.
	IntValue ValueKind = 1
	// FloatValue is a float64.
	FloatValue ValueKind = 2
)

// Value is one metadata value: a string, an int64, or a float64.
type Value struct {
	Kind  ValueKind
	Str   string
	Int   int64
	Float float64
}

// String formats the value for display and regex matching.
func (v Value) String() string {
	switch v.Kind {
	case StringValue:
		return v.Str
	case IntValue:
		return fmt.Sprintf("%d", v.Int)
	case FloatValue:
		return fmt.Sprintf("%g", v.Float)
	default:
		return fmt.Sprintf("Value(kind=%d)", uint8(v.Kind))
	}
}

// S makes a string Value.
func S(s string) Value { return Value{Kind: StringValue, Str: s} }

// I makes an integer Value.
func I(i int64) Value { return Value{Kind: IntValue, Int: i} }

// F makes a float Value.
func F(f float64) Value { return Value{Kind: FloatValue, Float: f} }

// Meta is a key-value metadata list (one level of the paper's two-level
// structure). It serializes with sorted keys, so files are deterministic.
type Meta map[string]Value

// Clone returns a copy of the metadata map.
func (m Meta) Clone() Meta {
	out := make(Meta, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// sortedKeys returns the keys in lexical order for deterministic encoding.
func (m Meta) sortedKeys() []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Well-known global metadata keys, matching the paper's Figure 4.
const (
	KeySamplingFrequency = "SamplingFrequency(HZ)"
	KeySpatialResolution = "SpatialResolution(m)"
	KeyTimeStamp         = "TimeStamp(yymmddhhmmss)"
	KeyNumberOfChannels  = "NumberOfObjects"
)

// Member references one data file inside a VCA, with the extents needed to
// route a hyperslab request without opening the member.
type Member struct {
	// Name is the member file's path, relative to the VCA file's directory
	// unless absolute.
	Name string
	// NumChannels and NumSamples are the member's array extents.
	NumChannels int
	NumSamples  int
	// Timestamp is the member's acquisition timestamp (yymmddhhmmss).
	Timestamp int64
}

// Info describes a DASF file without its array data. For KindData files,
// DataOffset locates the array; for KindVCA files, Members lists the
// constituent data files in time order and NumSamples is their total.
type Info struct {
	Path        string
	Kind        Kind
	Global      Meta
	NumChannels int
	NumSamples  int
	DType       DType
	// Layout is the array storage scheme (KindData only).
	Layout Layout
	// DataOffset is the byte offset of the array region: the raw rows for
	// Contiguous files, the chunk index for chunked ones (KindData only).
	DataOffset int64
	// PerChannelOffset locates the per-channel metadata block, 0 if absent.
	PerChannelOffset int64
	// Members lists the VCA's member files (KindVCA only).
	Members []Member
}

// SampleRate returns the sampling frequency in Hz recorded in the global
// metadata (KeySamplingFrequency), 0 when the file does not say. What 0 means
// is the caller's policy.
func (i Info) SampleRate() float64 {
	return float64(i.Global[KeySamplingFrequency].Int)
}

// Array2D is an in-memory [channels × samples] array stored row-major by
// channel: sample (c, t) lives at Data[c*Samples+t]. Analysis code works in
// float64 regardless of the on-disk dtype.
type Array2D struct {
	Channels int
	Samples  int
	Data     []float64
}

// MaxArrayElements caps the cells of any array a file — or a frame naming
// files — may declare: 2^31 elements (16 GiB of float64) is far beyond any
// real DAS record. Check a declared shape against it by division, before
// the product sizes an allocation.
const MaxArrayElements = 1 << 31

// NewArray2D allocates a zeroed channels×samples array.
func NewArray2D(channels, samples int) *Array2D {
	return &Array2D{Channels: channels, Samples: samples, Data: make([]float64, channels*samples)}
}

// At returns the sample at channel c, time index t.
func (a *Array2D) At(c, t int) float64 { return a.Data[c*a.Samples+t] }

// Set stores v at channel c, time index t.
func (a *Array2D) Set(c, t int, v float64) { a.Data[c*a.Samples+t] = v }

// Row returns channel c's time series as a subslice (no copy).
func (a *Array2D) Row(c int) []float64 { return a.Data[c*a.Samples : (c+1)*a.Samples] }

// Clone deep-copies the array.
func (a *Array2D) Clone() *Array2D {
	cp := &Array2D{Channels: a.Channels, Samples: a.Samples, Data: make([]float64, len(a.Data))}
	copy(cp.Data, a.Data)
	return cp
}
