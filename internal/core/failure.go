package core

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Device-tier failure and rebuild-from-buddy recovery — the core half of the
// pool's self-healing machinery. The failure model kills the *device* tier:
// Fail marks the primary slab dead, and every data-path operation (entry
// reads and writes, batch spans, Malloc) fails with ErrDeviceFailed until
// Recover rebuilds it. The buddy carve-out and the interconnect survive —
// they are separate memory on the far side of the link — so Recover
// re-streams every live entry's compressed bytes from the carve-out copy
// back into the device slab: one buddy-tier read of the stored stream plus
// one device-tier write of the in-budget sectors per entry.
//
// Modeling note: the paper's design writes an entry's overflow sectors to
// the carve-out on every store, and this model additionally treats the
// carve-out as holding a recoverable copy of the in-budget sectors (a
// write-through mirror), so a device-tier failure loses no data — the cost
// of recovery is the link traffic of streaming the whole compressed
// footprint back. That is what the rebuild accounts: the full stored bytes
// cross the link, the device-resident sectors are re-stored.

// ErrDeviceFailed is returned (wrapped) by every operation on a device
// whose primary tier has been killed with Fail and not yet rebuilt with
// Recover.
var ErrDeviceFailed = errors.New("core: device failed")

func (d *Device) errFailed() error {
	return fmt.Errorf("core: device tier down, Recover to rebuild: %w", ErrDeviceFailed)
}

// Fail kills the device's primary tier: every subsequent Malloc, entry
// operation and batch span fails with an error wrapping ErrDeviceFailed
// until Recover is called. In-flight operations that already passed the
// check complete normally (their entries were stored before the failure).
// Allocations, reservations and the carve-out tier stay intact — only the
// data path is down.
func (d *Device) Fail() { d.failed.Store(true) }

// Failed reports whether the device tier is currently down.
func (d *Device) Failed() bool { return d.failed.Load() }

// rebuildSpan is the spanRunner that re-streams one allocation's entries
// from the buddy carve-out copy into the rebuilt device tier.
type rebuildSpan struct {
	d       *Device
	a       *Allocation
	entries atomic.Int64
	bytes   atomic.Int64
}

func (s *rebuildSpan) runSpan(lo, hi int) error {
	d, a := s.d, s.a
	var n, moved int64
	d.mu.RLock()
	if a.freed {
		d.mu.RUnlock()
		return nil // freed mid-recovery: nothing left to rebuild
	}
	for i := lo; i < hi; i++ {
		sh := a.shard(i)
		sh.Lock()
		g, t := a.reg.firstEntry+i, a.target
		sectors := d.meta.Get(g)
		written := d.streams[g] != nil
		sh.Unlock()
		if !written {
			continue
		}
		// The whole stored stream crosses the link from the carve-out copy;
		// the in-budget sectors are re-stored device-side.
		stored := storedBytes(sectors)
		dev, _ := splitBytes(t, sectors)
		d.traffic.buddyReadBytes.Add(uint64(stored))
		d.overflow.Load(g, stored)
		d.traffic.deviceWriteBytes.Add(uint64(dev))
		d.primary.Store(g, dev)
		n++
		moved += int64(stored)
	}
	d.mu.RUnlock()
	s.entries.Add(n)
	s.bytes.Add(moved)
	return nil
}

// Recover rebuilds a failed device tier from the buddy carve-out: every
// written entry of every live allocation is streamed back over the link
// (buddy-tier read of the stored bytes) and re-stored in the device slab
// (device-tier write of the in-budget sectors), in parallel on the span
// pool. It returns the entries rebuilt and the compressed bytes that
// crossed the link, then reopens the data path. Recovering a device that
// has not failed is an error.
func (d *Device) Recover() (entries int, rebuilt int64, err error) {
	// One rebuild at a time: a Recover racing another finds the device
	// already being (or already) rebuilt. The data path stays down until
	// failed clears, so no write changes an entry underneath the spans; a
	// Free or Retarget interleaving between spans is seen consistently, as
	// each span reads the layout under dev.mu.
	if !d.failed.Load() || !d.recovering.CompareAndSwap(false, true) {
		return 0, 0, fmt.Errorf("core: Recover on a device that has not failed")
	}
	defer d.recovering.Store(false)
	for _, a := range d.Allocations() {
		s := &rebuildSpan{d: d, a: a}
		_ = d.span.run(a.EntryCount, s) // rebuildSpan has no error path
		entries += int(s.entries.Load())
		rebuilt += s.bytes.Load()
	}
	d.failed.Store(false)
	return entries, rebuilt, nil
}
