package dasf

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"math"
	"os"
)

// appendUint16/32/64 are little-endian append helpers.
func appendUint16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendUint32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendUint64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// encodeMeta serializes one KV list with sorted keys.
func encodeMeta(m Meta) []byte {
	keys := m.sortedKeys()
	buf := appendUint32(nil, uint32(len(keys)))
	for _, k := range keys {
		v := m[k]
		buf = appendUint16(buf, uint16(len(k)))
		buf = append(buf, k...)
		buf = append(buf, byte(v.Kind))
		switch v.Kind {
		case StringValue:
			buf = appendUint32(buf, uint32(len(v.Str)))
			buf = append(buf, v.Str...)
		case IntValue:
			buf = appendUint64(buf, uint64(v.Int))
		case FloatValue:
			buf = appendUint64(buf, math.Float64bits(v.Float))
		default:
			panic(fmt.Sprintf("dasf: cannot encode value kind %d", v.Kind))
		}
	}
	return buf
}

// decodeMeta parses a KV list encoded by encodeMeta.
func decodeMeta(b []byte) (Meta, int, error) {
	if len(b) < 4 {
		return nil, 0, fmt.Errorf("dasf: metadata block truncated")
	}
	n := int(binary.LittleEndian.Uint32(b))
	pos := 4
	// Each entry needs ≥ 3 bytes; bound the map preallocation accordingly
	// so corrupt counts cannot drive allocation.
	if n > len(b)/3+1 {
		return nil, 0, fmt.Errorf("dasf: metadata declares %d entries, block holds at most %d", n, len(b)/3+1)
	}
	m := make(Meta, n)
	for i := 0; i < n; i++ {
		if pos+2 > len(b) {
			return nil, 0, fmt.Errorf("dasf: metadata entry %d truncated", i)
		}
		klen := int(binary.LittleEndian.Uint16(b[pos:]))
		pos += 2
		if pos+klen+1 > len(b) {
			return nil, 0, fmt.Errorf("dasf: metadata key %d truncated", i)
		}
		key := string(b[pos : pos+klen])
		pos += klen
		kind := ValueKind(b[pos])
		pos++
		var v Value
		switch kind {
		case StringValue:
			if pos+4 > len(b) {
				return nil, 0, fmt.Errorf("dasf: string value %q truncated", key)
			}
			slen := int(binary.LittleEndian.Uint32(b[pos:]))
			pos += 4
			if pos+slen > len(b) {
				return nil, 0, fmt.Errorf("dasf: string value %q truncated", key)
			}
			v = S(string(b[pos : pos+slen]))
			pos += slen
		case IntValue:
			if pos+8 > len(b) {
				return nil, 0, fmt.Errorf("dasf: int value %q truncated", key)
			}
			v = I(int64(binary.LittleEndian.Uint64(b[pos:])))
			pos += 8
		case FloatValue:
			if pos+8 > len(b) {
				return nil, 0, fmt.Errorf("dasf: float value %q truncated", key)
			}
			v = F(math.Float64frombits(binary.LittleEndian.Uint64(b[pos:])))
			pos += 8
		default:
			return nil, 0, fmt.Errorf("dasf: unknown value kind %d for key %q", kind, key)
		}
		m[key] = v
	}
	return m, pos, nil
}

const headerSize = 4 + 2 + 2 // magic + version + kind

func encodeHeader(kind Kind) []byte {
	buf := make([]byte, 0, headerSize)
	buf = append(buf, Magic...)
	buf = appendUint16(buf, Version)
	buf = appendUint16(buf, uint16(kind))
	return buf
}

// WriteData writes a self-contained DASF data file with the contiguous
// layout. perChannel may be nil; if non-nil it must have exactly
// data.Channels entries. The array is stored at the given dtype (analysis
// always reads back float64).
func WriteData(path string, global Meta, perChannel []Meta, data *Array2D, dtype DType) error {
	return writeData(path, global, perChannel, data, dtype, Contiguous)
}

// WriteDataCompressed writes a data file with the chunked-deflate layout:
// one compressed chunk per channel row plus a chunk index, like an HDF5
// chunked dataset with the deflate filter.
func WriteDataCompressed(path string, global Meta, perChannel []Meta, data *Array2D, dtype DType) error {
	return writeData(path, global, perChannel, data, dtype, ChunkedDeflate)
}

func writeData(path string, global Meta, perChannel []Meta, data *Array2D, dtype DType, layout Layout) error {
	if data == nil || data.Channels <= 0 || data.Samples <= 0 {
		return fmt.Errorf("dasf: WriteData needs a non-empty array")
	}
	if len(data.Data) != data.Channels*data.Samples {
		return fmt.Errorf("dasf: array length %d does not match %d×%d",
			len(data.Data), data.Channels, data.Samples)
	}
	if perChannel != nil && len(perChannel) != data.Channels {
		return fmt.Errorf("dasf: perChannel has %d entries for %d channels",
			len(perChannel), data.Channels)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dasf: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	write := func(b []byte) error {
		_, werr := w.Write(b)
		return werr
	}

	var buf []byte
	buf = append(buf, encodeHeader(KindData)...)
	gm := encodeMeta(global)
	buf = appendUint32(buf, uint32(len(gm)))
	buf = append(buf, gm...)
	buf = appendUint32(buf, uint32(data.Channels))
	buf = appendUint32(buf, uint32(data.Samples))
	buf = append(buf, byte(dtype))
	buf = append(buf, byte(layout))
	var pcm []byte
	if perChannel != nil {
		for _, m := range perChannel {
			pcm = append(pcm, encodeMeta(m)...)
		}
	}
	buf = appendUint32(buf, uint32(len(pcm)))
	buf = append(buf, pcm...)
	if err := write(buf); err != nil {
		f.Close()
		return fmt.Errorf("dasf: %w", err)
	}

	esz := dtype.Size()
	row := make([]byte, data.Samples*esz)
	encodeRow := func(c int) {
		src := data.Row(c)
		switch dtype {
		case Float32:
			for t, v := range src {
				binary.LittleEndian.PutUint32(row[t*4:], math.Float32bits(float32(v)))
			}
		case Float64:
			for t, v := range src {
				binary.LittleEndian.PutUint64(row[t*8:], math.Float64bits(v))
			}
		}
	}
	switch layout {
	case Contiguous:
		for c := 0; c < data.Channels; c++ {
			encodeRow(c)
			if err := write(row); err != nil {
				f.Close()
				return fmt.Errorf("dasf: %w", err)
			}
		}
	case ChunkedDeflate:
		// Compress every row, then emit the chunk index followed by the
		// chunks. Offsets are absolute file positions.
		chunks := make([][]byte, data.Channels)
		var cbuf bytes.Buffer
		for c := 0; c < data.Channels; c++ {
			encodeRow(c)
			cbuf.Reset()
			fw, err := flate.NewWriter(&cbuf, flate.DefaultCompression)
			if err != nil {
				f.Close()
				return fmt.Errorf("dasf: %w", err)
			}
			if _, err := fw.Write(row); err != nil {
				f.Close()
				return fmt.Errorf("dasf: %w", err)
			}
			if err := fw.Close(); err != nil {
				f.Close()
				return fmt.Errorf("dasf: %w", err)
			}
			chunks[c] = append([]byte(nil), cbuf.Bytes()...)
		}
		indexStart := int64(len(buf))
		off := indexStart + int64(data.Channels)*chunkRefSize
		var idx []byte
		for _, ch := range chunks {
			idx = appendUint64(idx, uint64(off))
			idx = appendUint32(idx, uint32(len(ch)))
			off += int64(len(ch))
		}
		if err := write(idx); err != nil {
			f.Close()
			return fmt.Errorf("dasf: %w", err)
		}
		for _, ch := range chunks {
			if err := write(ch); err != nil {
				f.Close()
				return fmt.Errorf("dasf: %w", err)
			}
		}
	default:
		f.Close()
		return fmt.Errorf("dasf: unknown layout %d", layout)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("dasf: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("dasf: %w", err)
	}
	return nil
}

// chunkRefSize is one chunk-index entry: u64 offset + u32 length.
const chunkRefSize = 12

// WriteVCA writes a virtual file referencing the given members in order.
// All members must share a channel count; the VCA's time extent is the sum
// of member extents. Only metadata is written — this is why VCA
// construction is orders of magnitude cheaper than RCA construction.
func WriteVCA(path string, global Meta, dtype DType, members []Member) error {
	if len(members) == 0 {
		return fmt.Errorf("dasf: WriteVCA needs at least one member")
	}
	nch := members[0].NumChannels
	total := 0
	for i, m := range members {
		if m.NumChannels != nch {
			return fmt.Errorf("dasf: member %d has %d channels, member 0 has %d",
				i, m.NumChannels, nch)
		}
		if m.NumSamples <= 0 {
			return fmt.Errorf("dasf: member %d has %d samples", i, m.NumSamples)
		}
		total += m.NumSamples
	}
	var buf []byte
	buf = append(buf, encodeHeader(KindVCA)...)
	gm := encodeMeta(global)
	buf = appendUint32(buf, uint32(len(gm)))
	buf = append(buf, gm...)
	buf = appendUint32(buf, uint32(nch))
	buf = appendUint32(buf, uint32(total))
	buf = append(buf, byte(dtype))
	buf = appendUint32(buf, uint32(len(members)))
	for _, m := range members {
		buf = appendUint16(buf, uint16(len(m.Name)))
		buf = append(buf, m.Name...)
		buf = appendUint32(buf, uint32(m.NumChannels))
		buf = appendUint32(buf, uint32(m.NumSamples))
		buf = appendUint64(buf, uint64(m.Timestamp))
	}
	// Write-then-rename so the VCA is replaced atomically: a reader that
	// races an AppendToVCA sees either the old member list or the new one,
	// never a truncated file. This is what lets a long-running ingester
	// rewrite a live VCA while queries read it.
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("dasf: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("dasf: %w", err)
	}
	return nil
}
