// Package fixture exercises locksafe.
package fixture

import "sync"

type store struct {
	mu   sync.Mutex
	vals map[string]int
}

// leakyGet returns while holding the lock on the error path.
func (s *store) leakyGet(k string) (int, bool) {
	s.mu.Lock() // want "s.mu is locked here but a return path may exit without unlocking"
	v, ok := s.vals[k]
	if !ok {
		return 0, false
	}
	s.mu.Unlock()
	return v, true
}

// deferredGet is the blessed form.
func (s *store) deferredGet(k string) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.vals[k]
	if !ok {
		return 0, false
	}
	return v, true
}

// closureUnlock releases via a deferred closure; also fine.
func (s *store) closureUnlock(k string) int {
	s.mu.Lock()
	defer func() { s.mu.Unlock() }()
	return s.vals[k]
}

// manualPaths unlocks before every return; the linear scan accepts it.
func (s *store) manualPaths(k string) int {
	s.mu.Lock()
	if v, ok := s.vals[k]; ok {
		s.mu.Unlock()
		return v
	}
	s.mu.Unlock()
	return 0
}
