package dass

import (
	"path/filepath"
	"sync"
	"testing"

	"dassa/internal/dasf"
	"dassa/internal/dasgen"
)

// TestAppendToVCARacesReaders: one goroutine extends a VCA with
// AppendToVCA while several readers open and read the same VCA in a loop.
// Run under -race. Every read must see a consistent file — either the old
// member list or the new one, never a truncated or mixed header — which is
// what WriteVCA's write-then-rename guarantees.
func TestAppendToVCARacesReaders(t *testing.T) {
	dir := t.TempDir()
	const files = 12
	cfg := dasgen.Config{
		Channels: 6, SampleRate: 50, FileSeconds: 1, NumFiles: files,
		Seed: 3, DType: dasf.Float64,
	}
	if _, err := dasgen.Generate(dir, cfg, nil); err != nil {
		t.Fatal(err)
	}
	cat, err := ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries := cat.Entries()
	spf := cfg.SamplesPerFile()

	vca := filepath.Join(dir, "live.vca.dasf")
	if _, err := CreateVCA(vca, entries[:2]); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				v, err := OpenView(vca)
				if err != nil {
					t.Errorf("reader: open: %v", err)
					return
				}
				nch, nt := v.Shape()
				if nch != 6 || nt%spf != 0 || nt < 2*spf || nt > files*spf {
					t.Errorf("reader: inconsistent shape %d×%d", nch, nt)
					return
				}
				if _, _, err := v.Read(); err != nil {
					t.Errorf("reader: read: %v", err)
					return
				}
			}
		}()
	}

	for i := 2; i < files; i++ {
		if _, err := AppendToVCA(vca, entries[i:i+1]); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	close(done)
	wg.Wait()

	v, err := OpenView(vca)
	if err != nil {
		t.Fatal(err)
	}
	if _, nt := v.Shape(); nt != files*spf {
		t.Fatalf("final VCA has %d samples, want %d", nt, files*spf)
	}
}
