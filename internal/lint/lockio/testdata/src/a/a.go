package a

import (
	"os"
	"sync"

	"dassa/internal/dass"
)

type store struct {
	mu sync.Mutex
	rw sync.RWMutex
	m  map[string][]byte
}

// Bad: read from disk while holding the lock (deferred unlock keeps it
// held to the end of the function).
func (s *store) badDirect(path string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := os.ReadFile(path) // want `lockio: os.ReadFile while s.mu is held`
	if err != nil {
		return nil, err
	}
	s.m[path] = b
	return b, nil
}

// Bad: a catalog poll lists, stats and reads headers.
func (s *store) badScan(sc *dass.Scanner) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, _, _ = sc.Scan(nil) // want `lockio: Scanner.Scan while s.mu is held`
}

// Clean: snapshot-then-store — the I/O happens before the lock.
func (s *store) goodSnapshot(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.m[path] = b
	s.mu.Unlock()
	return nil
}

// Bad: even a read lock serializes against writers; Stat stalls them.
func (s *store) badUnderRLock(path string) {
	s.rw.RLock()
	_ = len(s.m)
	_, _ = os.Stat(path) // want `lockio: os.Stat while s.rw is held`
	s.rw.RUnlock()
}

// Clean: the unlock ends the region before the I/O.
func (s *store) goodAfterUnlock(path string) {
	s.mu.Lock()
	n := len(s.m)
	s.mu.Unlock()
	if n == 0 {
		_ = os.Remove(path)
	}
}

// Bad: the Locked suffix promises the caller already holds the lock, so
// the whole body is a critical section.
func (s *store) refreshLocked(path string) {
	b, err := os.ReadFile(path) // want `lockio: os.ReadFile inside refreshLocked`
	if err == nil {
		s.m[path] = b
	}
}

// Clean: the returned closure runs after the lock is long released.
func (s *store) goodClosure(path string) func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[path] = nil
	return func() {
		_, _ = os.Stat(path)
	}
}
