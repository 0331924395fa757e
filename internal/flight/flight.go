// Package flight provides a minimal generic singleflight: concurrent
// calls for the same key are deduplicated so the first caller does the
// work while everyone else blocks and shares the result. It is the one
// implementation behind the harness's run, trace and training
// deduplication and the on-disk stores' get-or-fill (fsutil.Store, used
// by the result store, the policy store and the stream trace cache).
package flight

import "sync"

// Group deduplicates concurrent Do calls per key. The zero value is
// ready to use.
type Group[V any] struct {
	mu sync.Mutex
	m  map[string]*call[V]
}

type call[V any] struct {
	wg  sync.WaitGroup
	val V
	err error
}

// Do runs fn for key unless a call for the same key is already in
// flight, in which case it blocks and returns that call's result.
// Both the value and the error propagate to every caller; fn may
// return a usable value alongside a non-nil error (partial success,
// e.g. "computed but not persisted") and Do passes both through
// unchanged. leader reports whether this caller executed fn. The key
// is released once fn returns, so a later Do runs fn again — errors
// are not cached.
func (g *Group[V]) Do(key string, fn func() (V, error)) (val V, leader bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*call[V])
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, false, c.err
	}
	c := new(call[V])
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	defer func() {
		c.wg.Done()
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
	}()
	c.val, c.err = fn()
	return c.val, true, c.err
}
