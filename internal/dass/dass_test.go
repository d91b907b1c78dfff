package dass

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/mpi"
)

// makeSeries generates a small synthetic file series and returns its
// directory, catalog, and config.
func makeSeries(t *testing.T, channels, files int) (string, *Catalog, dasgen.Config) {
	t.Helper()
	dir := t.TempDir()
	cfg := dasgen.Config{
		Channels: channels, SampleRate: 50, FileSeconds: 2, NumFiles: files,
		Seed: 11, DType: dasf.Float64,
	}
	if _, err := dasgen.Generate(dir, cfg, dasgen.Fig10Events(cfg)); err != nil {
		t.Fatal(err)
	}
	cat, err := ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return dir, cat, cfg
}

func TestScanDirSortedAndComplete(t *testing.T) {
	_, cat, cfg := makeSeries(t, 64, 5) // big enough that data ≫ metadata probe
	if cat.Len() != cfg.NumFiles {
		t.Fatalf("catalog has %d entries, want %d", cat.Len(), cfg.NumFiles)
	}
	entries := cat.Entries()
	for i := 1; i < len(entries); i++ {
		if entries[i].Timestamp <= entries[i-1].Timestamp {
			t.Errorf("catalog not time-sorted at %d", i)
		}
	}
	if cat.Trace.Opens != int64(cfg.NumFiles) {
		t.Errorf("catalog opens = %d, want %d (metadata-only)", cat.Trace.Opens, cfg.NumFiles)
	}
	// Metadata-only: the probe cost is a small constant per file,
	// independent of the data size.
	if perFile := cat.Trace.BytesRead / int64(cfg.NumFiles); perFile > 16*1024 {
		t.Errorf("catalog read %d bytes/file, should be a bounded metadata probe", perFile)
	}
}

func TestScanDirSkipsVCAs(t *testing.T) {
	dir, cat, _ := makeSeries(t, 4, 3)
	if _, err := CreateVCA(filepath.Join(dir, "all.dasf"), cat.Entries()); err != nil {
		t.Fatal(err)
	}
	cat2, err := ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cat2.Len() != 3 {
		t.Errorf("rescan found %d entries, want 3 (VCA must be skipped)", cat2.Len())
	}
}

func TestSearchStartCount(t *testing.T) {
	_, cat, _ := makeSeries(t, 4, 6)
	entries := cat.Entries()
	// From the 3rd file's timestamp, ask for 2.
	got := cat.SearchStartCount(entries[2].Timestamp, 2)
	if len(got) != 2 || got[0].Path != entries[2].Path || got[1].Path != entries[3].Path {
		t.Errorf("SearchStartCount wrong: %v", got)
	}
	// Start between files rounds up to the next file.
	got = cat.SearchStartCount(entries[2].Timestamp+1, 1)
	if len(got) != 1 || got[0].Path != entries[3].Path {
		t.Errorf("between-files search wrong")
	}
	// Past the end: empty.
	if got := cat.SearchStartCount(entries[5].Timestamp+1, 3); len(got) != 0 {
		t.Errorf("past-end search returned %d", len(got))
	}
	// Clipped count.
	if got := cat.SearchStartCount(entries[4].Timestamp, 10); len(got) != 2 {
		t.Errorf("clipped search returned %d, want 2", len(got))
	}
	if got := cat.SearchStartCount(0, 0); got != nil {
		t.Errorf("count=0 should return nil")
	}
}

func TestSearchRegex(t *testing.T) {
	_, cat, _ := makeSeries(t, 4, 6)
	entries := cat.Entries()
	// Exact timestamp of file 1.
	got, err := cat.SearchRegex(entryTS(t, entries[1]))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Path != entries[1].Path {
		t.Errorf("exact regex matched %d entries", len(got))
	}
	// Match-all pattern.
	got, err = cat.SearchRegex(`\d{12}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Errorf("wildcard matched %d, want 6", len(got))
	}
	// The pattern is anchored: a prefix alone must not match.
	got, err = cat.SearchRegex(`17062010`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("prefix matched %d entries, want 0 (anchored)", len(got))
	}
	if _, err := cat.SearchRegex(`[`); err == nil {
		t.Error("invalid regex should fail")
	}
}

func entryTS(t *testing.T, e Entry) string {
	t.Helper()
	return e.Info.Global[dasf.KeyTimeStamp].Str
}

func TestCreateVCAOnlyMetadata(t *testing.T) {
	dir, cat, cfg := makeSeries(t, 8, 4)
	vcaPath := filepath.Join(dir, "merged.dasf")
	tr, err := CreateVCA(vcaPath, cat.Entries())
	if err != nil {
		t.Fatal(err)
	}
	if tr.BytesRead != 0 {
		t.Errorf("VCA construction read %d data bytes, want 0", tr.BytesRead)
	}
	st, err := os.Stat(vcaPath)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > 4096 {
		t.Errorf("VCA file is %d bytes, expected tiny metadata file", st.Size())
	}
	info, _, err := dasf.ReadInfo(vcaPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.NumSamples != cfg.TotalSamples() || info.NumChannels != cfg.Channels {
		t.Errorf("VCA shape %d×%d, want %d×%d", info.NumChannels, info.NumSamples,
			cfg.Channels, cfg.TotalSamples())
	}
}

func TestCreateRCAEqualsVCARead(t *testing.T) {
	dir, cat, _ := makeSeries(t, 8, 4)
	vcaPath := filepath.Join(dir, "v.dasf")
	rcaPath := filepath.Join(dir, "r.dasf")
	if _, err := CreateVCA(vcaPath, cat.Entries()); err != nil {
		t.Fatal(err)
	}
	rcaTr, err := CreateRCA(rcaPath, cat.Entries())
	if err != nil {
		t.Fatal(err)
	}
	if rcaTr.BytesRead == 0 || rcaTr.BytesWritten == 0 {
		t.Error("RCA construction must read and write all data")
	}
	vv, err := OpenView(vcaPath)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := OpenView(rcaPath)
	if err != nil {
		t.Fatal(err)
	}
	va, _, err := vv.Read()
	if err != nil {
		t.Fatal(err)
	}
	ra, _, err := rv.Read()
	if err != nil {
		t.Fatal(err)
	}
	if va.Channels != ra.Channels || va.Samples != ra.Samples {
		t.Fatalf("shape mismatch: %d×%d vs %d×%d", va.Channels, va.Samples, ra.Channels, ra.Samples)
	}
	for i := range va.Data {
		if va.Data[i] != ra.Data[i] {
			t.Fatalf("VCA and RCA reads differ at %d", i)
		}
	}
}

func TestMergeValidation(t *testing.T) {
	dir := t.TempDir()
	a := dasf.NewArray2D(4, 10)
	b := dasf.NewArray2D(5, 10)
	meta := dasf.Meta{dasf.KeyTimeStamp: dasf.S("170728224510")}
	meta2 := dasf.Meta{dasf.KeyTimeStamp: dasf.S("170728224610")}
	if err := dasf.WriteData(filepath.Join(dir, "a_170728224510.dasf"), meta, nil, a, dasf.Float64); err != nil {
		t.Fatal(err)
	}
	if err := dasf.WriteData(filepath.Join(dir, "b_170728224610.dasf"), meta2, nil, b, dasf.Float64); err != nil {
		t.Fatal(err)
	}
	cat, err := ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CreateVCA(filepath.Join(dir, "v.dasf"), cat.Entries()); err == nil {
		t.Error("mismatched channel counts should fail")
	}
	if _, err := CreateVCA(filepath.Join(dir, "v.dasf"), nil); err == nil {
		t.Error("empty entry list should fail")
	}
}

// TestViewOverBoundsShape: the entries a view is built over may come from a
// frame, and the shape they declare sizes the block a read allocates. Each
// of these is refused before anything multiplies it; the well-formed series
// they are cut from is not.
func TestViewOverBoundsShape(t *testing.T) {
	series := func(nch int, samples ...int) []Entry {
		es := make([]Entry, len(samples))
		for i, n := range samples {
			path := filepath.Join("d", "m"+string(rune('a'+i))+".dasf")
			es[i] = Entry{Path: path, Timestamp: int64(i), Info: dasf.Info{Path: path, NumChannels: nch, NumSamples: n}}
		}
		return es
	}
	for _, es := range [][]Entry{series(4, 10), series(4, 10, 10, 10), series(1<<10, 1<<20, 1<<20)} {
		if _, err := ViewOver(es); err != nil {
			t.Fatalf("%d well-formed entries refused: %v", len(es), err)
		}
	}
	for _, tc := range []struct {
		name    string
		entries []Entry
	}{
		{"a zero-sample member", series(4, 10, 0, 10)},
		{"a zero-sample single file", series(4, 0)},
		{"a negative-sample member", series(4, -10, 10)},
		{"the most negative sample count", series(4, 10, math.MinInt)},
		{"zero channels", series(0, 10, 10)},
		{"negative channels", series(-8, 10, 10)},
		{"negative channels, one file", series(-8, 10)},
		{"a single file past the element cap", series(1<<16, 1<<20)},
		{"members summing past the element cap", series(1<<10, 1<<20, 1<<20, 1)},
		{"sample counts that wrap when summed", series(8, math.MaxInt, math.MaxInt)},
	} {
		if v, err := ViewOver(tc.entries); err == nil {
			nch, nt := v.Shape()
			t.Errorf("%s: accepted as a %d×%d view", tc.name, nch, nt)
		}
	}
}

func TestViewSubsetAndRead(t *testing.T) {
	dir, cat, cfg := makeSeries(t, 10, 3)
	vcaPath := filepath.Join(dir, "v.dasf")
	if _, err := CreateVCA(vcaPath, cat.Entries()); err != nil {
		t.Fatal(err)
	}
	v, err := OpenView(vcaPath)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := v.Read()
	if err != nil {
		t.Fatal(err)
	}
	// A time window crossing a file boundary.
	spf := cfg.SamplesPerFile()
	sub, err := v.Subset(2, 7, spf-10, spf+25)
	if err != nil {
		t.Fatal(err)
	}
	got, tr, err := sub.Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Channels != 5 || got.Samples != 35 {
		t.Fatalf("subset shape %d×%d", got.Channels, got.Samples)
	}
	if tr.Opens != 2 {
		t.Errorf("boundary-crossing read opened %d members, want 2", tr.Opens)
	}
	for c := 0; c < 5; c++ {
		for tt := 0; tt < 35; tt++ {
			want := full.At(c+2, tt+spf-10)
			if got.At(c, tt) != want {
				t.Fatalf("subset(%d,%d) = %g, want %g", c, tt, got.At(c, tt), want)
			}
		}
	}
	// Subset of subset composes.
	sub2, err := sub.Subset(1, 3, 5, 15)
	if err != nil {
		t.Fatal(err)
	}
	got2, _, err := sub2.Read()
	if err != nil {
		t.Fatal(err)
	}
	if got2.At(0, 0) != full.At(3, spf-5) {
		t.Error("nested subset misaligned")
	}
	// Bounds checks.
	if _, err := v.Subset(0, 11, 0, 10); err == nil {
		t.Error("channel overflow should fail")
	}
	if _, err := v.Subset(0, 2, 5, 5); err == nil {
		t.Error("empty time range should fail")
	}
}

func TestPartitionProperty(t *testing.T) {
	f := func(nRaw, pRaw uint16) bool {
		n := int(nRaw) % 1000
		p := int(pRaw)%32 + 1
		prev := 0
		for r := 0; r < p; r++ {
			lo, hi := Partition(n, p, r)
			if lo != prev || hi < lo {
				return false
			}
			if sz := hi - lo; sz < n/p || sz > n/p+1 {
				return false
			}
			prev = hi
		}
		return prev == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// runParallelRead runs a reader under MPI and reassembles the full array.
func runParallelRead(t *testing.T, p int, v *View,
	read func(c *mpi.Comm, v *View) (Block, int64)) *dasf.Array2D {
	t.Helper()
	var out *dasf.Array2D
	_, err := mpi.Run(p, func(c *mpi.Comm) {
		blk, _ := read(c, v)
		if a := GatherBlocks(c, v, blk); a != nil {
			out = a
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestParallelReadersAgreeWithSerial(t *testing.T) {
	dir, cat, _ := makeSeries(t, 12, 5)
	vcaPath := filepath.Join(dir, "v.dasf")
	if _, err := CreateVCA(vcaPath, cat.Entries()); err != nil {
		t.Fatal(err)
	}
	v, err := OpenView(vcaPath)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := v.Read()
	if err != nil {
		t.Fatal(err)
	}
	readers := map[string]func(c *mpi.Comm, v *View) (Block, int64){
		"independent": func(c *mpi.Comm, v *View) (Block, int64) {
			b, _ := ReadIndependent(c, v)
			return b, 0
		},
		"collective": func(c *mpi.Comm, v *View) (Block, int64) {
			b, _ := ReadCollectivePerFile(c, v)
			return b, 0
		},
		"comm-avoiding": func(c *mpi.Comm, v *View) (Block, int64) {
			b, _ := ReadCommAvoiding(c, v)
			return b, 0
		},
	}
	// More ranks than files, fewer ranks than files, uneven splits.
	for _, p := range []int{1, 2, 3, 5, 7, 13} {
		for name, rd := range readers {
			got := runParallelRead(t, p, v, rd)
			if got.Channels != want.Channels || got.Samples != want.Samples {
				t.Fatalf("%s p=%d: shape %d×%d", name, p, got.Channels, got.Samples)
			}
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("%s p=%d: data differs at %d: %g vs %g",
						name, p, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

func TestParallelReadersOnSubsetView(t *testing.T) {
	dir, cat, cfg := makeSeries(t, 9, 4)
	vcaPath := filepath.Join(dir, "v.dasf")
	if _, err := CreateVCA(vcaPath, cat.Entries()); err != nil {
		t.Fatal(err)
	}
	v, err := OpenView(vcaPath)
	if err != nil {
		t.Fatal(err)
	}
	spf := cfg.SamplesPerFile()
	sub, err := v.Subset(1, 8, spf/2, 3*spf+spf/2)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := sub.Read()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4} {
		got := runParallelRead(t, p, sub, func(c *mpi.Comm, v *View) (Block, int64) {
			b, _ := ReadCommAvoiding(c, v)
			return b, 0
		})
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("p=%d: subset parallel read differs at %d", p, i)
			}
		}
	}
}

func TestReaderTraceShapes(t *testing.T) {
	dir, cat, _ := makeSeries(t, 12, 6)
	vcaPath := filepath.Join(dir, "v.dasf")
	if _, err := CreateVCA(vcaPath, cat.Entries()); err != nil {
		t.Fatal(err)
	}
	v, err := OpenView(vcaPath)
	if err != nil {
		t.Fatal(err)
	}
	const p = 3
	n := int64(6) // files
	var collTrace, avoidTrace, indepTrace struct {
		opens, reads, bcasts, exch int64
	}
	_, err = mpi.Run(p, func(c *mpi.Comm) {
		_, tr := ReadCollectivePerFile(c, v)
		if c.Rank() == 0 {
			collTrace.opens, collTrace.reads = tr.Opens, tr.Reads
			collTrace.bcasts = tr.Broadcasts
		}
		_, tr = ReadCommAvoiding(c, v)
		if c.Rank() == 0 {
			avoidTrace.opens, avoidTrace.reads = tr.Opens, tr.Reads
			avoidTrace.exch = tr.ExchangeRounds
			avoidTrace.bcasts = tr.Broadcasts
		}
		_, tr = ReadIndependent(c, v)
		if c.Rank() == 0 {
			indepTrace.opens, indepTrace.reads = tr.Opens, tr.Reads
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Collective-per-file: n opens, n large reads, n broadcasts.
	if collTrace.opens != n || collTrace.bcasts != n {
		t.Errorf("collective: opens=%d bcasts=%d, want %d each", collTrace.opens, collTrace.bcasts, n)
	}
	// Comm-avoiding: n opens, n reads, ceil(n/p)·(p-1) exchange rounds, no
	// broadcasts.
	if avoidTrace.opens != n || avoidTrace.bcasts != 0 {
		t.Errorf("comm-avoiding: opens=%d bcasts=%d, want %d and 0", avoidTrace.opens, avoidTrace.bcasts, n)
	}
	wantRounds := int64(math.Ceil(6.0/p)) * (p - 1)
	if avoidTrace.exch != wantRounds {
		t.Errorf("comm-avoiding exchange rounds = %d, want %d", avoidTrace.exch, wantRounds)
	}
	// Independent on a VCA: p ranks × n files opens (the O(p·n) pathology).
	if indepTrace.opens != n*p {
		t.Errorf("independent opens = %d, want %d", indepTrace.opens, n*p)
	}
	if indepTrace.reads <= avoidTrace.reads {
		t.Errorf("independent reads (%d) should exceed comm-avoiding reads (%d)",
			indepTrace.reads, avoidTrace.reads)
	}
}

func TestReadMissingMemberAborts(t *testing.T) {
	dir, cat, _ := makeSeries(t, 4, 3)
	vcaPath := filepath.Join(dir, "v.dasf")
	if _, err := CreateVCA(vcaPath, cat.Entries()); err != nil {
		t.Fatal(err)
	}
	// Delete a member out from under the VCA.
	if err := os.Remove(cat.Entries()[1].Path); err != nil {
		t.Fatal(err)
	}
	v, err := OpenView(vcaPath)
	if err != nil {
		t.Fatal(err) // opening is metadata-only and must still work
	}
	if _, _, err := v.Read(); err == nil {
		t.Error("serial read of broken VCA should fail")
	}
	_, err = mpi.Run(2, func(c *mpi.Comm) {
		ReadCommAvoiding(c, v)
	})
	if err == nil {
		t.Error("parallel read of broken VCA should abort the world")
	}
}

func TestSearchRange(t *testing.T) {
	_, cat, _ := makeSeries(t, 4, 6)
	entries := cat.Entries()
	// [file1, file4): three files.
	got := cat.SearchRange(entries[1].Timestamp, entries[4].Timestamp)
	if len(got) != 3 || got[0].Path != entries[1].Path || got[2].Path != entries[3].Path {
		t.Errorf("SearchRange returned %d entries", len(got))
	}
	// Everything.
	if got := cat.SearchRange(0, 1e12); len(got) != 6 {
		t.Errorf("full range returned %d", len(got))
	}
	// Empty and inverted ranges.
	if got := cat.SearchRange(entries[5].Timestamp+1, entries[5].Timestamp+100); got != nil {
		t.Error("past-end range should be nil")
	}
	if got := cat.SearchRange(entries[3].Timestamp, entries[1].Timestamp); got != nil {
		t.Error("inverted range should be nil")
	}
	// End is exclusive.
	got = cat.SearchRange(entries[0].Timestamp, entries[1].Timestamp)
	if len(got) != 1 || got[0].Path != entries[0].Path {
		t.Errorf("exclusive end broken: %d entries", len(got))
	}
}

func TestAppendToVCA(t *testing.T) {
	dir, cat, cfg := makeSeries(t, 8, 6)
	entries := cat.Entries()
	vcaPath := filepath.Join(dir, "grow.dasf")
	if _, err := CreateVCA(vcaPath, entries[:4]); err != nil {
		t.Fatal(err)
	}
	// Append the last two files (the "newly recorded minute").
	tr, err := AppendToVCA(vcaPath, entries[4:])
	if err != nil {
		t.Fatal(err)
	}
	if tr.BytesRead > 16*1024 {
		t.Errorf("append read %d bytes, should be metadata only", tr.BytesRead)
	}
	v, err := OpenView(vcaPath)
	if err != nil {
		t.Fatal(err)
	}
	nch, nt := v.Shape()
	if nch != cfg.Channels || nt != cfg.TotalSamples() {
		t.Fatalf("grown VCA shape %d×%d, want %d×%d", nch, nt, cfg.Channels, cfg.TotalSamples())
	}
	// Content equals a VCA built in one shot.
	oneShot := filepath.Join(dir, "oneshot.dasf")
	if _, err := CreateVCA(oneShot, entries); err != nil {
		t.Fatal(err)
	}
	v2, err := OpenView(oneShot)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := v.Read()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := v2.Read()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("grown VCA differs from one-shot at %d", i)
		}
	}
	// Guards: out-of-order append, wrong target kind, empty append.
	if _, err := AppendToVCA(vcaPath, entries[:1]); err == nil {
		t.Error("out-of-order append should fail")
	}
	if _, err := AppendToVCA(entries[0].Path, entries[4:]); err == nil {
		t.Error("appending to a data file should fail")
	}
	if _, err := AppendToVCA(vcaPath, nil); err == nil {
		t.Error("empty append should fail")
	}
}

func TestReadersOverCompressedSeries(t *testing.T) {
	// The whole storage stack must be layout-transparent: a VCA over
	// chunked-deflate members reads identically (serially and in parallel)
	// to one over contiguous members.
	dirC := t.TempDir()
	dirZ := t.TempDir()
	cfg := dasgen.Config{
		Channels: 10, SampleRate: 50, FileSeconds: 2, NumFiles: 4,
		Seed: 33, DType: dasf.Float32,
	}
	if _, err := dasgen.Generate(dirC, cfg, dasgen.Fig10Events(cfg)); err != nil {
		t.Fatal(err)
	}
	cfgZ := cfg
	cfgZ.Compress = true
	if _, err := dasgen.Generate(dirZ, cfgZ, dasgen.Fig10Events(cfgZ)); err != nil {
		t.Fatal(err)
	}
	open := func(dir string) *View {
		cat, err := ScanDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, "v.dasf")
		if _, err := CreateVCA(p, cat.Entries()); err != nil {
			t.Fatal(err)
		}
		v, err := OpenView(p)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	vc := open(dirC)
	vz := open(dirZ)
	want, _, err := vc.Read()
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := vz.Read()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("compressed read differs at %d", i)
		}
	}
	// (Size benefits are asserted in dasf's chunked tests on compressible
	// data; raw noise at float32 precision doesn't deflate.)
	// Parallel comm-avoiding read over compressed members.
	var par *dasf.Array2D
	_, err = mpi.Run(3, func(c *mpi.Comm) {
		blk, _ := ReadCommAvoiding(c, vz)
		if a := GatherBlocks(c, vz, blk); a != nil {
			par = a
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if par.Data[i] != want.Data[i] {
			t.Fatalf("parallel compressed read differs at %d", i)
		}
	}
}
