// Package lockdata is locklint's golden file: a mu-guarded cache in the
// repository's convention, accessed correctly and incorrectly, plus
// goroutine loop-variable capture.
package lockdata

import "sync"

// cache follows the engine's convention: mu guards the fields declared
// after it.
type cache struct {
	hits int // before mu: not guarded
	mu   sync.RWMutex
	m    map[uint64]int
}

// lookupUnlocked reads the guarded map with no lock on any path.
func (c *cache) lookupUnlocked(k uint64) int {
	return c.m[k] // want `guarded by mu`
}

// storeUnlocked writes the guarded map with no lock on any path.
func (c *cache) storeUnlocked(k uint64, v int) {
	c.m[k] = v // want `guarded by mu`
}

// lookup is the correct read path.
func (c *cache) lookup(k uint64) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.m[k]
}

// store is the correct write path.
func (c *cache) store(k uint64, v int) {
	c.mu.Lock()
	c.m[k] = v
	c.mu.Unlock()
}

// bump touches only the unguarded field declared before mu.
func (c *cache) bump() {
	c.hits++
}

// newCache is the constructor pattern: the value has not escaped, so
// filling the guarded field needs no lock.
func newCache() *cache {
	c := &cache{}
	c.m = make(map[uint64]int)
	return c
}

// captured launches goroutines that close over the loop variable.
func captured(xs []int, out chan<- int) {
	for _, x := range xs {
		go func() {
			out <- x // want `captures loop variable x`
		}()
	}
}

// passed is the parallelFor idiom: the loop variable arrives as an
// argument, so the closure's x is a parameter, not a capture.
func passed(xs []int, out chan<- int) {
	for _, x := range xs {
		go func(x int) {
			out <- x
		}(x)
	}
}

// genericCache is the same convention on a generic type: fields reached
// through the instantiated receiver are still guarded.
type genericCache[V any] struct {
	mu sync.RWMutex
	m  map[uint64]V
}

// lookupUnlocked reads the guarded map with no lock on any path.
func (c *genericCache[V]) lookupUnlocked(k uint64) V {
	return c.m[k] // want `guarded by mu`
}

// lookup is the correct read path.
func (c *genericCache[V]) lookup(k uint64) V {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.m[k]
}
