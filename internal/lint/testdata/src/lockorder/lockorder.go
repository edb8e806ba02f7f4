// Package lockorder is the fixture for the Device lock hierarchy and the
// release discipline.
package lockorder

import "sync"

// Device mirrors core.Device's lock fields: the allocation-table mu, then
// the entry-shard locks.
type Device struct {
	mu     sync.RWMutex
	shards [8]sync.Mutex
}

func (d *Device) shard(i int) *sync.Mutex { return &d.shards[i%len(d.shards)] }

// The documented order with deferred unlocks: clean.
func (d *Device) ordered(i int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	sh := d.shard(i)
	sh.Lock()
	defer sh.Unlock()
}

// Taking mu while holding an entry-shard lock inverts the hierarchy.
func (d *Device) shardThenMu(i int) {
	sh := d.shard(i)
	sh.Lock()
	defer sh.Unlock()
	d.mu.Lock() // want `violates the lock order mu -> entry shards`
	defer d.mu.Unlock()
}

// Re-acquiring a held lock self-deadlocks.
func (d *Device) reacquire() {
	d.mu.Lock()
	d.mu.Lock() // want `re-acquiring deadlocks`
	d.mu.Unlock()
}

// A read lock must be released with RUnlock.
func (d *Device) mismatched() {
	d.mu.RLock()
	d.mu.Unlock() // want `use RUnlock`
}

// Releasing on every return path without defer: clean.
func (d *Device) everyPath(cond bool) int {
	d.mu.Lock()
	if cond {
		d.mu.Unlock()
		return 1
	}
	d.mu.Unlock()
	return 0
}

// One early return forgets the unlock.
func (d *Device) leakyReturn(cond bool) int {
	d.mu.Lock()
	if cond {
		return 1 // want `not released on this return path`
	}
	d.mu.Unlock()
	return 0
}

// A lock taken in a loop iteration must be released before the next one.
func (d *Device) loopLocked(n int) {
	for i := 0; i < n; i++ {
		d.mu.Lock() // want `locked in a loop body is not released`
	}
}

// Falling off the end of the function still holding the lock.
func (d *Device) fallThrough() {
	d.mu.Lock()
} // want `not released on this fall-through path`
