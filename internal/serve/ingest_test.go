package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dassa/internal/dasf"
	"dassa/internal/dass"
	"dassa/internal/testutil/leakcheck"
)

// TestScanKeepsIndexInMemory: after the first scan the catalog index lives
// in the ingester, so an arrival neither reads nor rewrites the index file;
// Run writes it on exit.
func TestScanKeepsIndexInMemory(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	staged := stageFiles(t, 4)
	for _, p := range staged[:3] {
		arrive(t, dir, p)
	}
	ing := NewIngester(IngestConfig{Dir: dir, Poll: time.Hour}, nil)
	if err := ing.ScanOnce(); err != nil {
		t.Fatal(err)
	}

	// Swap in a snapshot that lies about every header. A poll that read it
	// would catalog 999 channels; one that wrote it would change its bytes.
	idxPath := filepath.Join(dir, dass.IndexFileName)
	raw, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatalf("the first scan wrote no snapshot: %v", err)
	}
	var idx map[string]any
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber() // keep the ns stamps exact
	if err := dec.Decode(&idx); err != nil {
		t.Fatal(err)
	}
	entries := idx["entries"].([]any)
	if len(entries) != 3 {
		t.Fatalf("snapshot holds %d entries, want 3", len(entries))
	}
	for _, e := range entries {
		e.(map[string]any)["info"].(map[string]any)["NumChannels"] = 999
	}
	lie, err := json.Marshal(idx)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(idxPath, lie, 0o644); err != nil {
		t.Fatal(err)
	}

	arrive(t, dir, staged[3])
	if err := ing.ScanOnce(); err != nil {
		t.Fatal(err)
	}
	cat := ing.Catalog()
	if cat.Len() != 4 {
		t.Fatalf("catalog holds %d files after the arrival, want 4", cat.Len())
	}
	for _, e := range cat.Entries() {
		if e.Info.NumChannels != genCfg(1).Channels {
			t.Fatalf("%s cataloged with %d channels: the poll read the index file", e.Path, e.Info.NumChannels)
		}
	}
	if now, err := os.ReadFile(idxPath); err != nil || !bytes.Equal(now, lie) {
		t.Fatalf("the poll rewrote the index file (err %v)", err)
	}

	// Run's exit writes the snapshot a restart starts from: warm, and true.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ing.Run(ctx)
	warm, err := dass.ScanDirCached(dir)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Len() != 4 || warm.Trace.Opens != 0 {
		t.Fatalf("snapshot after Run: %d files, %d header reads; want 4 and 0", warm.Len(), warm.Trace.Opens)
	}
	for _, e := range warm.Entries() {
		if e.Info.NumChannels != genCfg(1).Channels {
			t.Fatalf("the exit snapshot still lies about %s", e.Path)
		}
	}
}

// TestRunSnapshotWithConcurrentScans: ScanOnce calls racing Run's own polls
// and its exit share the scanner through the scanning guard, and the exit
// snapshot holds every file the ingester had cataloged.
func TestRunSnapshotWithConcurrentScans(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	staged := stageFiles(t, 12)
	ing := NewIngester(IngestConfig{Dir: dir, Poll: time.Millisecond}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { ing.Run(ctx); close(done) }()
	for _, p := range staged {
		arrive(t, dir, p)
		if err := ing.ScanOnce(); err != nil {
			t.Error(err)
		}
	}
	cancel()
	<-done
	warm, err := dass.ScanDirCached(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A ScanOnce that found Run's poll in flight was a no-op, so the last
	// arrival may postdate the last poll.
	unseen := int64(len(staged) - ing.Catalog().Len())
	if warm.Len() != len(staged) || warm.Trace.Opens != unseen {
		t.Fatalf("exit snapshot: %d files, %d header reads; want %d and %d",
			warm.Len(), warm.Trace.Opens, len(staged), unseen)
	}
}

// TestLiveVCAPastHeaderProbe: the live VCA keeps extending once its member
// table is longer than the reader's header probe (about 185 members).
func TestLiveVCAPastHeaderProbe(t *testing.T) {
	leakcheck.Check(t)
	const arrivals = 250
	dir := t.TempDir()
	ing := NewIngester(IngestConfig{Dir: dir, Poll: time.Hour, LiveVCA: true}, nil)
	for _, p := range stageFiles(t, arrivals) {
		arrive(t, dir, p)
		if err := ing.ScanOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if st := ing.Stats(); st.VCAErrors != 0 || st.VCAAppends != arrivals {
		t.Fatalf("live VCA: %d appends, %d errors; want %d and 0", st.VCAAppends, st.VCAErrors, arrivals)
	}
	info, _, err := dasf.ReadInfo(filepath.Join(dir, LiveVCAName))
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Members) != arrivals {
		t.Fatalf("live VCA has %d members, want %d", len(info.Members), arrivals)
	}
}
