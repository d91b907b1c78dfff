package faults

import (
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"testing"
	"time"
)

func TestScheduleIsDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, TransientProb: 0.5, MaxTransient: 3}
	a, b := New(cfg), New(cfg)
	paths := []string{"a.dasf", "b.dasf", "c.dasf", "dir/d.dasf"}
	for _, p := range paths {
		for i := 0; i < 6; i++ {
			ea, eb := a.ReadFault(p), b.ReadFault(p)
			if (ea == nil) != (eb == nil) {
				t.Fatalf("injectors with equal seed disagree on %s read %d", p, i)
			}
		}
	}
	// A different seed must eventually produce a different schedule.
	c := New(Config{Seed: 43, TransientProb: 0.5, MaxTransient: 3})
	same := true
	for _, p := range paths {
		fresh := New(cfg)
		for i := 0; i < 6; i++ {
			if (fresh.ReadFault(p) == nil) != (c.ReadFault(p) == nil) {
				same = false
			}
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical schedules on all paths")
	}
}

func TestScheduleIgnoresDirectory(t *testing.T) {
	// The schedule keys on the base name, so the same file faulted from two
	// mount points (or a relative vs absolute path) behaves identically.
	a := New(Config{Seed: 9, TransientProb: 0.9, MaxTransient: 3})
	b := New(Config{Seed: 9, TransientProb: 0.9, MaxTransient: 3})
	for i := 0; i < 5; i++ {
		ea := a.ReadFault("/mnt/lustre/x.dasf")
		eb := b.ReadFault("./data/x.dasf")
		if (ea == nil) != (eb == nil) {
			t.Fatalf("same base name, different schedule at read %d", i)
		}
	}
}

func TestTransientStreakIsBounded(t *testing.T) {
	// Even at p=1 every file must recover within MaxTransient reads.
	in := New(Config{Seed: 1, TransientProb: 1, MaxTransient: 3})
	for f := 0; f < 20; f++ {
		path := fmt.Sprintf("f%02d.dasf", f)
		fails := 0
		for in.ReadFault(path) != nil {
			fails++
			if fails > 3 {
				t.Fatalf("%s failed %d times, bound is 3", path, fails)
			}
		}
		if fails != 3 {
			t.Errorf("%s failed %d times, want the full streak of 3 at p=1", path, fails)
		}
		// Once recovered, the file stays healthy.
		if err := in.ReadFault(path); err != nil {
			t.Errorf("%s faulted again after recovering", path)
		}
	}
	if got := in.Counters().Transient; got != 60 {
		t.Errorf("counted %d transient faults, want 60", got)
	}
}

func TestMissingAndCorrupt(t *testing.T) {
	in := New(Config{Missing: []string{"gone.dasf"}, Corrupt: []string{"/abs/bad.dasf"}})
	if err := in.OpenFault("/some/dir/gone.dasf"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file open error %v does not wrap fs.ErrNotExist", err)
	}
	if err := in.OpenFault("fine.dasf"); err != nil {
		t.Errorf("unlisted file faulted on open: %v", err)
	}
	// Corrupt files fail every read, forever.
	for i := 0; i < 4; i++ {
		if err := in.ReadFault("/abs/bad.dasf"); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("corrupt read %d: got %v", i, err)
		}
	}
	if err := in.ReadFault("fine.dasf"); err != nil {
		t.Errorf("unlisted file faulted on read: %v", err)
	}
	c := in.Counters()
	if c.Missing != 1 || c.Corrupt != 4 {
		t.Errorf("counters = %+v, want Missing=1 Corrupt=4", c)
	}
}

func TestInjectorIsConcurrencySafe(t *testing.T) {
	in := New(Config{Seed: 5, TransientProb: 1, MaxTransient: 3})
	var wg sync.WaitGroup
	var mu sync.Mutex
	fails := 0
	for r := 0; r < 16; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if in.ReadFault("shared.dasf") != nil {
					mu.Lock()
					fails++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	// The streak bound holds globally, not per goroutine.
	if fails != 3 {
		t.Errorf("shared file failed %d times across ranks, want 3", fails)
	}
}

func TestIsTransient(t *testing.T) {
	if !IsTransient(ErrTransient) {
		t.Error("ErrTransient not transient")
	}
	if !IsTransient(fmt.Errorf("read op: %w", ErrTransient)) {
		t.Error("wrapped ErrTransient not transient")
	}
	for _, err := range []error{nil, ErrCorrupt, ErrMissing, errors.New("boom")} {
		if IsTransient(err) {
			t.Errorf("%v wrongly transient", err)
		}
	}
}

func TestRetryDo(t *testing.T) {
	t.Run("transient then success", func(t *testing.T) {
		p := RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond}
		calls := 0
		attempts, err := p.Do(func() error {
			calls++
			if calls < 3 {
				return ErrTransient
			}
			return nil
		})
		if err != nil || attempts != 3 || calls != 3 {
			t.Errorf("attempts=%d calls=%d err=%v, want 3/3/nil", attempts, calls, err)
		}
	})
	t.Run("permanent error returns immediately", func(t *testing.T) {
		p := RetryPolicy{MaxAttempts: 5, BaseDelay: time.Microsecond}
		calls := 0
		attempts, err := p.Do(func() error { calls++; return ErrCorrupt })
		if !errors.Is(err, ErrCorrupt) || attempts != 1 || calls != 1 {
			t.Errorf("attempts=%d calls=%d err=%v, want 1/1/ErrCorrupt", attempts, calls, err)
		}
	})
	t.Run("budget exhaustion returns last error", func(t *testing.T) {
		p := RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond}
		attempts, err := p.Do(func() error { return ErrTransient })
		if !errors.Is(err, ErrTransient) || attempts != 3 {
			t.Errorf("attempts=%d err=%v, want 3/ErrTransient", attempts, err)
		}
	})
	t.Run("zero policy tries once", func(t *testing.T) {
		var p RetryPolicy
		calls := 0
		attempts, err := p.Do(func() error { calls++; return ErrTransient })
		if attempts != 1 || calls != 1 || err == nil {
			t.Errorf("zero policy: attempts=%d calls=%d err=%v", attempts, calls, err)
		}
	})
	t.Run("WithRetries", func(t *testing.T) {
		if got := WithRetries(3).MaxAttempts; got != 4 {
			t.Errorf("WithRetries(3).MaxAttempts = %d, want 4", got)
		}
	})
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("seed=42,transient=0.3,max=5,missing=a.dasf,missing=b.dasf,corrupt=c.dasf,slowp=0.1,slowlat=2ms")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 42 || cfg.TransientProb != 0.3 || cfg.MaxTransient != 5 ||
		len(cfg.Missing) != 2 || cfg.Missing[1] != "b.dasf" ||
		len(cfg.Corrupt) != 1 || cfg.SlowProb != 0.1 || cfg.SlowLatency != 2*time.Millisecond {
		t.Errorf("parsed %+v", cfg)
	}
	for _, bad := range []string{
		"", "transient", "transient=", "=0.3", "transient=1.5", "slowp=-1",
		"bogus=1", "seed=notanint", "slowlat=fast",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestReadDelay(t *testing.T) {
	// p=1: every file is a straggler.
	in := New(Config{Seed: 3, SlowProb: 1, SlowLatency: 5 * time.Millisecond})
	if d := in.ReadDelay("x.dasf"); d != 5*time.Millisecond {
		t.Errorf("delay = %v, want 5ms", d)
	}
	// p=0: no stragglers.
	in = New(Config{Seed: 3, SlowProb: 0, SlowLatency: 5 * time.Millisecond})
	if d := in.ReadDelay("x.dasf"); d != 0 {
		t.Errorf("delay = %v, want 0", d)
	}
}
