package dasf_test

// External test package: the seed is a VCA grown by dass.AppendToVCA, and
// dass imports dasf, so this cannot live in package dasf itself.

import (
	"os"
	"path/filepath"
	"testing"

	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/dass"
)

// FuzzOpenAppendedVCA fuzzes the append-path VCA shape: a member table
// that was rewritten in place rather than produced by one CreateVCA. The
// reader and the view layer must reject inconsistent member extents
// without panicking.
func FuzzOpenAppendedVCA(f *testing.F) {
	dir := f.TempDir()
	cfg := dasgen.Config{
		Channels: 6, SampleRate: 50, FileSeconds: 1, NumFiles: 6,
		Seed: 4, DType: dasf.Float64,
	}
	if _, err := dasgen.Generate(dir, cfg, nil); err != nil {
		f.Fatal(err)
	}
	cat, err := dass.ScanDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	entries := cat.Entries()
	vca := filepath.Join(dir, "grown.dasf")
	if _, err := dass.CreateVCA(vca, entries[:3]); err != nil {
		f.Fatal(err)
	}
	if _, err := dass.AppendToVCA(vca, entries[3:]); err != nil {
		f.Fatal(err)
	}
	orig, err := os.ReadFile(vca)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), orig...))
	f.Add(append([]byte(nil), orig[:len(orig)*3/4]...)) // truncation seed
	// A member table longer than the header probe: the reader fetches the
	// rest of it.
	long := make([]dasf.Member, 300)
	for i := range long {
		long[i] = dasf.Member{Name: filepath.Base(entries[i%len(entries)].Path),
			NumChannels: cfg.Channels, NumSamples: entries[0].Info.NumSamples, Timestamp: int64(i)}
	}
	if err := dasf.WriteVCA(vca, entries[0].Info.Global, dasf.Float64, long); err != nil {
		f.Fatal(err)
	}
	longRaw, err := os.ReadFile(vca)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(longRaw)

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "f.dasf")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := dasf.Open(p)
		if err != nil {
			return
		}
		defer r.Close()
		// Survivable mutation: push it through the view layer too, where
		// member extents are cross-checked against the catalog.
		if v, err := dass.NewView(r.Info()); err == nil {
			v.Read()
		}
	})
}
