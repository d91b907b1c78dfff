package dasf

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dassa/internal/faults"
)

// IOStats counts the physical operations a Reader or ParallelWriter has
// issued. The DASSA experiments compare I/O strategies by exactly these
// counts.
type IOStats struct {
	Opens        int64
	Reads        int64 // distinct read calls (≈ seeks on a disk file system)
	BytesRead    int64
	Writes       int64 // distinct positioned write calls
	BytesWritten int64

	Retries        int64 // operations re-issued after transient failures
	FaultsInjected int64 // injected failures hit (transient + permanent)
	SlowReads      int64 // reads delayed by injected straggler latency
}

// Add accumulates other into s.
func (s *IOStats) Add(other IOStats) {
	s.Opens += other.Opens
	s.Reads += other.Reads
	s.BytesRead += other.BytesRead
	s.Writes += other.Writes
	s.BytesWritten += other.BytesWritten
	s.Retries += other.Retries
	s.FaultsInjected += other.FaultsInjected
	s.SlowReads += other.SlowReads
}

// Reader reads one DASF file: metadata eagerly, array data on demand via
// hyperslab requests. It is safe for concurrent ReadSlab calls on
// contiguous files (ReadAt underneath); chunked readers serialize their
// index load internally.
type Reader struct {
	f     *os.File
	path  string
	ctx   context.Context    // captured at Open; bounds every physical read
	inj   *faults.Injector   // captured at Open; nil when no injection
	retry faults.RetryPolicy // captured at Open
	info  Info
	stats IOStats

	chunkMu sync.Mutex
	chunks  []chunkRef // lazily loaded index for chunked files
}

// chunkRef locates one channel's compressed chunk.
type chunkRef struct {
	off  int64
	clen int
}

// readAt is the single physical-read choke point: the installed fault
// injector sees every read here, so injected stragglers, transient EIOs,
// and permanent corruption hit exactly where a real file system would.
func (r *Reader) readAt(buf []byte, off int64) (int, error) {
	if err := r.ctx.Err(); err != nil {
		return 0, fmt.Errorf("dasf: %s: %w", r.path, err)
	}
	if r.inj != nil {
		if d := r.inj.ReadDelay(r.path); d > 0 {
			r.stats.SlowReads++
			// A straggler read must stay cancellable: a wedged storage
			// target (which this delay models) would otherwise hold the
			// request past its deadline.
			t := time.NewTimer(d)
			select {
			case <-r.ctx.Done():
				t.Stop()
				return 0, fmt.Errorf("dasf: %s: %w", r.path, r.ctx.Err())
			case <-t.C:
			}
		}
		if err := r.inj.ReadFault(r.path); err != nil {
			r.stats.FaultsInjected++
			mFaults.Inc()
			return 0, fmt.Errorf("dasf: %s: %w", r.path, err)
		}
	}
	n, err := r.f.ReadAt(buf, off)
	mReads.Inc()
	mReadBytes.Add(int64(n))
	if err != nil && err != io.EOF {
		mFaults.Inc()
	}
	return n, err
}

// Open opens path and parses its metadata, retrying transient failures
// under the installed retry policy. The array data is not touched; this is
// the cheap "metadata-only" access VCA construction relies on.
func Open(path string) (*Reader, error) {
	return OpenContext(context.Background(), path)
}

// OpenContext is Open bound to a context. The context is captured by the
// returned Reader and bounds every subsequent physical read: injected
// straggler delays become cancellable, retry backoff unwinds early, and a
// read issued after cancellation fails with the context's error instead of
// touching the disk. A nil ctx means context.Background().
func OpenContext(ctx context.Context, path string) (*Reader, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	inj := Injector()
	pol := RetryPolicy()
	var r *Reader
	var cum IOStats // stats of failed attempts, so retried work is counted
	attempts, err := pol.DoContext(ctx, func() error {
		if inj != nil {
			if ferr := inj.OpenFault(path); ferr != nil {
				cum.FaultsInjected++
				return fmt.Errorf("dasf: %s: %w", path, ferr)
			}
		}
		f, ferr := os.Open(path)
		if ferr != nil {
			return fmt.Errorf("dasf: %w", ferr)
		}
		rr := &Reader{f: f, path: path, ctx: ctx, inj: inj, retry: pol}
		rr.stats.Opens++
		if perr := rr.parseInfo(path); perr != nil {
			cum.Add(rr.stats)
			f.Close()
			return perr
		}
		r = rr
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.stats.Add(cum)
	r.stats.Retries += int64(attempts - 1)
	mOpens.Inc()
	mRetries.Add(int64(attempts - 1))
	return r, nil
}

// ReadInfo parses a file's metadata and closes it again. Convenience for
// search and VCA construction, which never need the data.
func ReadInfo(path string) (Info, IOStats, error) {
	return ReadInfoContext(context.Background(), path)
}

// ReadInfoContext is ReadInfo bound to a context (see OpenContext).
func ReadInfoContext(ctx context.Context, path string) (Info, IOStats, error) {
	r, err := OpenContext(ctx, path)
	if err != nil {
		return Info{}, IOStats{}, err
	}
	defer r.Close()
	return r.Info(), r.Stats(), nil
}

func (r *Reader) parseInfo(path string) error {
	// Metadata lives at the front of the file; one bounded read gets it.
	// 8 KiB covers any realistic global metadata block; the parser re-reads
	// exactly what it needs if a block is longer.
	buf := make([]byte, 8*1024)
	n, err := r.readAt(buf, 0)
	if err != nil && err != io.EOF {
		return fmt.Errorf("dasf: %s: %w", path, err)
	}
	buf = buf[:n]
	r.stats.Reads++
	r.stats.BytesRead += int64(n)

	need := func(k int, what string) error {
		if k > len(buf) {
			return corruptf("dasf: %s: truncated %s", path, what)
		}
		return nil
	}
	if err := need(headerSize, "header"); err != nil {
		return err
	}
	if string(buf[:4]) != Magic {
		return corruptf("dasf: %s: bad magic %q", path, buf[:4])
	}
	if v := binary.LittleEndian.Uint16(buf[4:]); v != Version {
		return corruptf("dasf: %s: unsupported version %d", path, v)
	}
	kind := Kind(binary.LittleEndian.Uint16(buf[6:]))
	pos := headerSize

	if err := need(pos+4, "global metadata length"); err != nil {
		return err
	}
	gmLen := int(binary.LittleEndian.Uint32(buf[pos:]))
	pos += 4
	// A corrupt length field must not drive allocation: global metadata
	// beyond this bound is rejected, not fetched.
	const maxMetaBytes = 16 << 20
	if gmLen > maxMetaBytes {
		return corruptf("dasf: %s: global metadata declares %d bytes (max %d)", path, gmLen, maxMetaBytes)
	}
	if pos+gmLen > len(buf) {
		// Metadata larger than the probe read: fetch exactly what's needed.
		bigger := make([]byte, pos+gmLen+4096)
		n, err = r.readAt(bigger, 0)
		if err != nil && err != io.EOF {
			return fmt.Errorf("dasf: %s: %w", path, err)
		}
		buf = bigger[:n]
		r.stats.Reads++
		r.stats.BytesRead += int64(n)
		if pos+gmLen > len(buf) {
			return corruptf("dasf: %s: truncated global metadata", path)
		}
	}
	global, used, err := decodeMeta(buf[pos : pos+gmLen])
	if err != nil {
		return corruptf("dasf: %s: %v", path, err)
	}
	if used != gmLen {
		return corruptf("dasf: %s: global metadata length mismatch (%d vs %d)", path, used, gmLen)
	}
	pos += gmLen

	if err := need(pos+9, "shape"); err != nil {
		return err
	}
	nch := int(binary.LittleEndian.Uint32(buf[pos:]))
	nt := int(binary.LittleEndian.Uint32(buf[pos+4:]))
	dtype := DType(buf[pos+8])
	pos += 9
	if dtype != Float32 && dtype != Float64 {
		return corruptf("dasf: %s: unknown dtype %d", path, dtype)
	}
	if nch <= 0 || nt <= 0 {
		return corruptf("dasf: %s: invalid shape %d×%d", path, nch, nt)
	}
	// A corrupt shape must not drive allocation: nch*nt can overflow int
	// (both fields are uint32 on disk) and NewArray2D allocates the
	// product; division avoids the overflow the check exists to stop.
	if int64(nt) > MaxArrayElements/int64(nch) {
		return corruptf("dasf: %s: declared array %d×%d exceeds element cap", path, nch, nt)
	}

	r.info = Info{Path: path, Kind: kind, Global: global, NumChannels: nch, NumSamples: nt, DType: dtype}

	switch kind {
	case KindData:
		if err := need(pos+1, "layout"); err != nil {
			return err
		}
		layout := Layout(buf[pos])
		pos++
		if layout != Contiguous && layout != ChunkedDeflate {
			return corruptf("dasf: %s: unknown layout %d", path, layout)
		}
		r.info.Layout = layout
		if err := need(pos+4, "per-channel metadata length"); err != nil {
			return err
		}
		pcmLen := int(binary.LittleEndian.Uint32(buf[pos:]))
		pos += 4
		if pcmLen > 0 {
			r.info.PerChannelOffset = int64(pos)
		}
		r.info.DataOffset = int64(pos + pcmLen)
		// Validate the file is long enough for the declared array region.
		st, err := r.f.Stat()
		if err != nil {
			return fmt.Errorf("dasf: %s: %w", path, err)
		}
		var want int64
		if layout == Contiguous {
			want = r.info.DataOffset + int64(nch)*int64(nt)*int64(dtype.Size())
		} else {
			want = r.info.DataOffset + int64(nch)*chunkRefSize // index at minimum
		}
		if st.Size() < want {
			return corruptf("dasf: %s: file is %d bytes, array needs %d", path, st.Size(), want)
		}
		// For chunked files the row length is only checked when a chunk
		// inflates, after the row buffer is allocated — so bound it first:
		// deflate cannot expand beyond ~1032×, so a row longer than the
		// whole file could inflate to is unsatisfiable.
		const maxDeflateRatio = 1032
		if layout == ChunkedDeflate && int64(nt)*int64(dtype.Size()) > st.Size()*maxDeflateRatio {
			return corruptf("dasf: %s: chunked row of %d samples cannot inflate from a %d-byte file",
				path, nt, st.Size())
		}
	case KindVCA:
		if err := need(pos+4, "member count"); err != nil {
			return err
		}
		nm := int(binary.LittleEndian.Uint32(buf[pos:]))
		pos += 4
		if nm == 0 {
			return corruptf("dasf: %s: VCA with zero members", path)
		}
		// The member table runs to the end of the file, past the probe read
		// once a VCA has a few hundred members. Each record needs ≥ 18
		// bytes, so the file's size bounds the count before anything is
		// allocated; then the rest of the table is fetched in one read.
		st, err := r.f.Stat()
		if err != nil {
			return fmt.Errorf("dasf: %s: %w", path, err)
		}
		if room := (st.Size() - int64(pos)) / 18; int64(nm) > room {
			return corruptf("dasf: %s: VCA declares %d members, file holds at most %d", path, nm, room)
		}
		if end := min(st.Size(), int64(pos)+int64(nm)*(18+math.MaxUint16)); end > int64(len(buf)) {
			rest := make([]byte, end)
			copy(rest, buf)
			n, err := r.readAt(rest[len(buf):], int64(len(buf)))
			if err != nil && err != io.EOF {
				return fmt.Errorf("dasf: %s: %w", path, err)
			}
			r.stats.Reads++
			r.stats.BytesRead += int64(n)
			buf = rest[:len(buf)+n]
		}
		dir := filepath.Dir(path)
		members := make([]Member, nm)
		for i := range members {
			if err := need(pos+2, "member name length"); err != nil {
				return err
			}
			nameLen := int(binary.LittleEndian.Uint16(buf[pos:]))
			pos += 2
			if err := need(pos+nameLen+16, "member record"); err != nil {
				return err
			}
			name := string(buf[pos : pos+nameLen])
			pos += nameLen
			if !filepath.IsAbs(name) {
				name = filepath.Join(dir, name)
			}
			members[i] = Member{
				Name:        name,
				NumChannels: int(binary.LittleEndian.Uint32(buf[pos:])),
				NumSamples:  int(binary.LittleEndian.Uint32(buf[pos+4:])),
				Timestamp:   int64(binary.LittleEndian.Uint64(buf[pos+8:])),
			}
			pos += 16
		}
		// Mirror WriteVCA's invariants: every member shares the VCA's channel
		// count, extents are positive, and they sum to the declared total.
		// Without this, corrupt member extents turn into absurd allocations
		// downstream before any member read can catch the mismatch.
		total := int64(0)
		for i, m := range members {
			if m.NumChannels != r.info.NumChannels || m.NumSamples <= 0 {
				return corruptf("dasf: %s: member %d has impossible shape %d×%d in a %d-channel VCA",
					path, i, m.NumChannels, m.NumSamples, r.info.NumChannels)
			}
			total += int64(m.NumSamples)
		}
		if total != int64(r.info.NumSamples) {
			return corruptf("dasf: %s: member extents sum to %d, VCA declares %d",
				path, total, r.info.NumSamples)
		}
		r.info.Members = members
	default:
		return corruptf("dasf: %s: unknown kind %d", path, kind)
	}
	return nil
}

// Info returns the file's parsed metadata.
func (r *Reader) Info() Info { return r.info }

// Stats returns the I/O operation counts issued so far.
func (r *Reader) Stats() IOStats { return r.stats }

// Close releases the file handle.
func (r *Reader) Close() error { return r.f.Close() }

// PerChannelMeta reads and decodes the per-channel metadata block. Returns
// nil if the file has none.
func (r *Reader) PerChannelMeta() ([]Meta, error) {
	if r.info.Kind != KindData || r.info.PerChannelOffset == 0 {
		return nil, nil
	}
	length := r.info.DataOffset - r.info.PerChannelOffset
	buf := make([]byte, length)
	attempts, err := r.retry.DoContext(r.ctx, func() error {
		if _, rerr := r.readAt(buf, r.info.PerChannelOffset); rerr != nil {
			return fmt.Errorf("dasf: %s: %w", r.info.Path, rerr)
		}
		r.stats.Reads++
		r.stats.BytesRead += length
		return nil
	})
	r.stats.Retries += int64(attempts - 1)
	mRetries.Add(int64(attempts - 1))
	if err != nil {
		return nil, err
	}
	out := make([]Meta, 0, r.info.NumChannels)
	pos := 0
	for c := 0; c < r.info.NumChannels; c++ {
		m, used, err := decodeMeta(buf[pos:])
		if err != nil {
			return nil, corruptf("dasf: %s: channel %d metadata: %v", r.info.Path, c, err)
		}
		pos += used
		out = append(out, m)
	}
	return out, nil
}

// ReadSlab reads the hyperslab [chLo, chHi) × [tLo, tHi) from a data file
// into a freshly allocated array (see ReadSlabInto).
func (r *Reader) ReadSlab(chLo, chHi, tLo, tHi int) (*Array2D, error) {
	if err := r.checkSlab(chLo, chHi, tLo, tHi); err != nil {
		return nil, err
	}
	out := NewArray2D(chHi-chLo, tHi-tLo)
	if err := r.readSlabInto(out.Data, out.Samples, chLo, chHi, tLo, tHi); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadSlabInto decodes the hyperslab [chLo, chHi) × [tLo, tHi) straight into
// a strided destination: channel c's samples land at dst[(c-chLo)*stride:],
// so a caller assembling a wider array hands each member its column band and
// nothing is copied afterwards. A request spanning the full time range is
// satisfied with a single contiguous read (the access pattern the
// communication-avoiding method exploits); otherwise one read per channel
// row is issued. dst is checked before any read; cells of dst outside the
// band are not touched. After an error the band's content is unspecified.
func (r *Reader) ReadSlabInto(dst []float64, stride, chLo, chHi, tLo, tHi int) error {
	if err := r.checkSlab(chLo, chHi, tLo, tHi); err != nil {
		return err
	}
	width := tHi - tLo
	if stride < width || len(dst) < (chHi-chLo-1)*stride+width {
		return fmt.Errorf("dasf: %s: destination of %d values at stride %d cannot hold slab %d×%d",
			r.info.Path, len(dst), stride, chHi-chLo, width)
	}
	return r.readSlabInto(dst, stride, chLo, chHi, tLo, tHi)
}

// checkSlab validates a hyperslab request against the file's shape. The
// shape was bounded at Open, so a request that passes sizes no allocation
// beyond the file's own element cap.
func (r *Reader) checkSlab(chLo, chHi, tLo, tHi int) error {
	if r.info.Kind != KindData {
		return fmt.Errorf("dasf: %s: ReadSlab on a %s file (resolve VCA members first)",
			r.info.Path, r.info.Kind)
	}
	nch, nt := r.info.NumChannels, r.info.NumSamples
	if chLo < 0 || chHi > nch || chLo >= chHi || tLo < 0 || tHi > nt || tLo >= tHi {
		return fmt.Errorf("dasf: %s: slab [%d:%d)×[%d:%d) out of bounds %d×%d",
			r.info.Path, chLo, chHi, tLo, tHi, nch, nt)
	}
	return nil
}

// readSlabInto fills a validated slab, retrying the whole attempt under the
// reader's policy when the failure is transient — every attempt rewrites the
// band from its first row, so a retry that succeeds leaves nothing of the
// failed one behind.
func (r *Reader) readSlabInto(dst []float64, stride, chLo, chHi, tLo, tHi int) error {
	attempts, err := r.retry.DoContext(r.ctx, func() error {
		if r.info.Layout == ChunkedDeflate {
			return r.readSlabChunked(dst, stride, chLo, chHi, tLo, tHi)
		}
		return r.readSlabRaw(dst, stride, chLo, chHi, tLo, tHi)
	})
	r.stats.Retries += int64(attempts - 1)
	mRetries.Add(int64(attempts - 1))
	return err
}

// rawPool recycles the byte buffers raw and compressed samples land in
// before they are decoded. A buffer is held only for the duration of one
// slab attempt; the pool itself lets go of idle buffers at the next GC.
var rawPool = sync.Pool{New: func() any { return new([]byte) }}

// getRaw borrows an n-byte buffer; hand the pointer back with rawPool.Put.
func getRaw(n int) *[]byte {
	bp := rawPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// readSlabRaw is one attempt at a contiguous-layout slab: a single request
// when the slab spans the full time range (its rows are adjacent on disk),
// else one per channel row.
func (r *Reader) readSlabRaw(dst []float64, stride, chLo, chHi, tLo, tHi int) error {
	nt := r.info.NumSamples
	esz := r.info.DType.Size()
	rows, width := chHi-chLo, tHi-tLo
	rowBytes := width * esz
	perRead := 1
	if tLo == 0 && tHi == nt {
		perRead = rows
	}
	bp := getRaw(perRead * rowBytes)
	defer rawPool.Put(bp)
	buf := *bp
	for c := 0; c < rows; c += perRead {
		off := r.info.DataOffset + (int64(chLo+c)*int64(nt)+int64(tLo))*int64(esz)
		if _, err := r.readAt(buf, off); err != nil {
			return fmt.Errorf("dasf: %s: channel %d: %w", r.info.Path, chLo+c, err)
		}
		r.stats.Reads++
		r.stats.BytesRead += int64(len(buf))
		for k := 0; k < perRead; k++ {
			decodeSamples(dst[(c+k)*stride:(c+k)*stride+width], buf[k*rowBytes:], r.info.DType)
		}
	}
	return nil
}

// ReadAll reads the entire array with one contiguous read.
func (r *Reader) ReadAll() (*Array2D, error) {
	return r.ReadSlab(0, r.info.NumChannels, 0, r.info.NumSamples)
}

// loadChunkIndex reads and caches the chunk index of a chunked file. The
// read happens outside chunkMu (lockio: no I/O under a mutex): racing
// loaders read identical bytes and the first store wins, so the only cost
// of the race is one duplicate index read.
func (r *Reader) loadChunkIndex() ([]chunkRef, error) {
	r.chunkMu.Lock()
	cached := r.chunks
	r.chunkMu.Unlock()
	if cached != nil {
		return cached, nil
	}
	nch := r.info.NumChannels
	buf := make([]byte, nch*chunkRefSize)
	if _, err := r.readAt(buf, r.info.DataOffset); err != nil {
		return nil, fmt.Errorf("dasf: %s: chunk index: %w", r.info.Path, err)
	}
	r.stats.Reads++
	r.stats.BytesRead += int64(len(buf))
	st, err := r.f.Stat()
	if err != nil {
		return nil, fmt.Errorf("dasf: %s: %w", r.info.Path, err)
	}
	chunks := make([]chunkRef, nch)
	for c := range chunks {
		off := int64(binary.LittleEndian.Uint64(buf[c*chunkRefSize:]))
		clen := int(binary.LittleEndian.Uint32(buf[c*chunkRefSize+8:]))
		if off < r.info.DataOffset || clen < 0 || off+int64(clen) > st.Size() {
			return nil, corruptf("dasf: %s: chunk %d index out of bounds", r.info.Path, c)
		}
		chunks[c] = chunkRef{off: off, clen: clen}
	}
	r.chunkMu.Lock()
	if r.chunks == nil {
		r.chunks = chunks
	} else {
		chunks = r.chunks
	}
	r.chunkMu.Unlock()
	return chunks, nil
}

// readSlabChunked is one attempt at a chunked-layout slab: one chunk read +
// decompression per requested channel, through one inflater and one buffer
// (the inflated row, then room for the largest compressed chunk).
func (r *Reader) readSlabChunked(dst []float64, stride, chLo, chHi, tLo, tHi int) error {
	chunks, err := r.loadChunkIndex()
	if err != nil {
		return err
	}
	esz := r.info.DType.Size()
	rowBytes := r.info.NumSamples * esz
	maxClen := 0
	for _, ref := range chunks[chLo:chHi] {
		maxClen = max(maxClen, ref.clen)
	}
	bp := getRaw(rowBytes + maxClen)
	defer rawPool.Put(bp)
	raw, compBuf := (*bp)[:rowBytes], (*bp)[rowBytes:]
	var br bytes.Reader
	fr := flate.NewReader(&br)
	defer fr.Close()
	inflater := fr.(flate.Resetter)
	width := tHi - tLo
	for c := chLo; c < chHi; c++ {
		ref := chunks[c]
		comp := compBuf[:ref.clen]
		if _, err := r.readAt(comp, ref.off); err != nil {
			return fmt.Errorf("dasf: %s: chunk %d: %w", r.info.Path, c, err)
		}
		r.stats.Reads++
		r.stats.BytesRead += int64(ref.clen)
		br.Reset(comp)
		if err := inflater.Reset(&br, nil); err != nil {
			return fmt.Errorf("dasf: %s: chunk %d: %w", r.info.Path, c, err)
		}
		if _, err := io.ReadFull(fr, raw); err != nil {
			return corruptf("dasf: %s: chunk %d decompress: %v", r.info.Path, c, err)
		}
		decodeSamples(dst[(c-chLo)*stride:(c-chLo)*stride+width], raw[tLo*esz:], r.info.DType)
	}
	return nil
}

// decodeSamples converts len(dst) little-endian on-disk samples at the
// front of src into float64s.
func decodeSamples(dst []float64, src []byte, dtype DType) {
	switch dtype {
	case Float32:
		src = src[:len(dst)*4]
		for i := range dst {
			dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(src[i*4 : i*4+4 : i*4+4])))
		}
	case Float64:
		src = src[:len(dst)*8]
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8 : i*8+8 : i*8+8]))
		}
	}
}
