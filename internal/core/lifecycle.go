package core

import (
	"errors"
	"fmt"
	"slices"
)

// Allocation lifecycle and live target-ratio migration (the §3.4 extension:
// "the target ratios can be periodically updated for long running
// applications"). Free retires an allocation — reservations return to their
// tiers, the entry-table region becomes a reusable hole, and every later
// I/O fails with ErrFreed. Retarget re-lays-out a live allocation under a
// new target ratio while reader/writer traffic continues, and
// ApplyReprofile drives Retarget from a checkpoint-time ReprofilePlan.
//
// Concurrency scheme: every control-plane change to an allocation (Malloc,
// Free, Retarget) happens under dev.mu held exclusively, and every data-path
// access holds dev.mu shared while it takes an entry's shard lock (lock
// order mu -> entry shards). Retarget therefore never runs concurrently
// with an entry operation: inside one device a relocation only hands stream
// references and metadata nibbles from one region to another — nothing is
// re-encoded — so the whole layout swap is a single short critical section,
// and I/O before it sees the old layout, I/O after it the new one.

// ErrFreed is returned (wrapped) by every I/O operation on an allocation
// that has been released with Free or Close.
var ErrFreed = errors.New("core: allocation freed")

// region is a contiguous reservation in the three allocation spaces: entry
// slots in the global entry table, bytes in the device slab, and bytes in
// the buddy carve-out. Regions always start at an even slot index and span
// an even slot count so no metadata byte straddles two regions.
type region struct {
	firstEntry int // even
	slots      int // even; >= the allocation's EntryCount
	deviceOff  int64
	devBytes   int64
	buddyOff   int64
	buddyBytes int64
}

// regionSlots rounds an entry count up to the even slot count its region
// occupies (see region).
func regionSlots(entries int) int { return entries + entries%2 }

// grabRegion hands out a region of the given shape, reusing the first
// retired hole that fits in all three spaces and growing the entry table
// only when none does. Caller must hold d.mu exclusively.
func (d *Device) grabRegion(slots int, devBytes, buddyBytes int64) region {
	for i, h := range d.holes {
		if h.slots >= slots && h.devBytes >= devBytes && h.buddyBytes >= buddyBytes {
			r := region{h.firstEntry, slots, h.deviceOff, devBytes, h.buddyOff, buddyBytes}
			rem := region{
				firstEntry: h.firstEntry + slots,
				slots:      h.slots - slots,
				deviceOff:  h.deviceOff + devBytes,
				devBytes:   h.devBytes - devBytes,
				buddyOff:   h.buddyOff + buddyBytes,
				buddyBytes: h.buddyBytes - buddyBytes,
			}
			if rem.slots >= 2 {
				d.holes[i] = rem
			} else {
				// A slot-less remainder can never host an allocation; drop
				// it (address space is modeled, capacity is metered by the
				// backends, so nothing real leaks).
				d.holes = slices.Delete(d.holes, i, i+1)
			}
			return r
		}
	}
	r := region{d.totalEntry, slots, d.deviceOff, devBytes, d.buddyOff, buddyBytes}
	d.totalEntry += slots
	d.deviceOff += devBytes
	d.buddyOff += buddyBytes
	d.streams = append(d.streams, make([][]byte, slots)...)
	d.meta = growMetadata(d.meta, d.totalEntry)
	return r
}

// freeRegion returns a region to the hole list, coalescing with an adjacent
// hole when the two are contiguous in all three spaces. Caller must hold
// d.mu exclusively.
func (d *Device) freeRegion(r region) {
	for i := range d.holes {
		h := &d.holes[i]
		if h.firstEntry+h.slots == r.firstEntry &&
			h.deviceOff+h.devBytes == r.deviceOff &&
			h.buddyOff+h.buddyBytes == r.buddyOff {
			h.slots += r.slots
			h.devBytes += r.devBytes
			h.buddyBytes += r.buddyBytes
			return
		}
		if r.firstEntry+r.slots == h.firstEntry &&
			r.deviceOff+r.devBytes == h.deviceOff &&
			r.buddyOff+r.buddyBytes == h.buddyOff {
			h.firstEntry = r.firstEntry
			h.deviceOff = r.deviceOff
			h.buddyOff = r.buddyOff
			h.slots += r.slots
			h.devBytes += r.devBytes
			h.buddyBytes += r.buddyBytes
			return
		}
	}
	d.holes = append(d.holes, r)
}

// Free releases an allocation: its device and buddy reservations return to
// their tiers, its metadata is retired, its entry-table region becomes
// reusable by later Mallocs, and every subsequent I/O on the allocation
// fails with an error wrapping ErrFreed. Freeing twice is an error. An
// in-flight ReadAt/WriteAt may complete its current entries; entries it
// attempts after Free fail like any other I/O.
func (d *Device) Free(a *Allocation) error {
	if a == nil || a.dev != d {
		return fmt.Errorf("core: Free of an allocation not owned by this device")
	}
	d.mu.Lock()
	if a.freed {
		d.mu.Unlock()
		return a.errFreed()
	}
	a.freed = true
	for g := a.reg.firstEntry; g < a.reg.firstEntry+a.EntryCount; g++ {
		d.streams[g] = nil
		d.meta.Set(g, 0)
	}
	if i := slices.Index(d.allocs, a); i >= 0 {
		d.allocs = slices.Delete(d.allocs, i, i+1)
	}
	r := a.reg
	d.freeRegion(r)
	d.mu.Unlock()

	d.primary.Release(r.devBytes)
	d.overflow.Release(r.buddyBytes)
	return nil
}

// Close releases the allocation via Device.Free; Allocation satisfies
// io.Closer so regions can sit behind defer and resource-managing helpers.
func (a *Allocation) Close() error { return a.dev.Free(a) }

// storedBytes is the stored footprint of an entry compressed to the given
// sector count: the 8 B zero-page word for class 0, whole sectors
// otherwise. This is the unit both ReprofileDecision.MigrationBytes and
// Traffic.MigrationBytes count, so planned and actual cost compare 1:1.
func storedBytes(sectors int) int {
	if sectors == 0 {
		return 8
	}
	return sectors * 32
}

// errStaleDecision marks a reprofile decision whose allocation changed
// target between planning and application; ApplyReprofile maps it to a
// skip.
var errStaleDecision = errors.New("core: stale reprofile decision")

// Retarget migrates a live allocation to a new target compression ratio
// (§3.4: "requires re-allocating the memory for that page and moving data").
// The new layout's reservations are taken up front (failing with
// ErrOutOfMemory leaves the allocation untouched); the layout is then
// swapped in one critical section — every written entry's stream and
// metadata move to the new region, which replaces the old one — and the old
// region's reservations return to their tiers. Concurrent reads and writes
// see either the old layout or the new one, never a mix. It returns the
// stored bytes re-packed (the migration cost a ReprofilePlan estimates).
func (d *Device) Retarget(a *Allocation, target TargetRatio) (int64, error) {
	return d.retarget(a, target, nil)
}

// retarget is Retarget with an optional expected current target: when
// expectOld is non-nil and the allocation's target no longer matches (a
// concurrent Free/Retarget won the race since the caller looked), it fails
// with errStaleDecision instead of migrating. The checks are repeated under
// dev.mu held exclusively, where no control-plane operation can interleave.
func (d *Device) retarget(a *Allocation, target TargetRatio, expectOld *TargetRatio) (int64, error) {
	if a == nil || a.dev != d {
		return 0, fmt.Errorf("core: Retarget of an allocation not owned by this device")
	}
	d.mu.RLock()
	done, err := a.retargetDone(target, expectOld)
	d.mu.RUnlock()
	if done || err != nil {
		return 0, err
	}

	entries := a.EntryCount
	devBytes := int64(entries) * int64(target.DeviceBytes())
	buddyBytes := int64(entries) * int64(target.BuddySlotBytes())
	// Both layouts are reserved across the swap; the old bytes return only
	// after it.
	if err := d.primary.Reserve(devBytes); err != nil {
		return 0, err
	}
	if err := d.overflow.Reserve(buddyBytes); err != nil {
		d.primary.Release(devBytes)
		return 0, err
	}

	d.mu.Lock()
	if done, err := a.retargetDone(target, expectOld); done || err != nil {
		d.mu.Unlock()
		d.primary.Release(devBytes)
		d.overflow.Release(buddyBytes)
		return 0, err
	}
	oldT, oldReg := a.target, a.reg
	newReg := d.grabRegion(regionSlots(entries), devBytes, buddyBytes)
	// sectors[i] is entry i's sector count, -1 for a never-written entry
	// (nothing to move, nothing to account).
	sectors := make([]int8, entries)
	for i := range sectors {
		gOld, gNew := oldReg.firstEntry+i, newReg.firstEntry+i
		if d.streams[gOld] == nil {
			sectors[i] = -1
			continue
		}
		s := d.meta.Get(gOld)
		d.streams[gNew], d.streams[gOld] = d.streams[gOld], nil
		d.meta.Set(gNew, s)
		d.meta.Set(gOld, 0)
		sectors[i] = int8(s)
	}
	a.target, a.reg = target, newReg
	d.freeRegion(oldReg)
	d.mu.Unlock()

	d.primary.Release(oldReg.devBytes)
	d.overflow.Release(oldReg.buddyBytes)

	// Model the move like the data path models an access, after the lock:
	// each written entry reads its old placement and writes its new one.
	var moved, devR, devW, budR, budW int64
	for i, s := range sectors {
		if s < 0 {
			continue
		}
		gOld, gNew := oldReg.firstEntry+i, newReg.firstEntry+i
		dr, br := splitBytes(oldT, int(s))
		dw, bw := splitBytes(target, int(s))
		moved += int64(storedBytes(int(s)))
		devR, devW = devR+int64(dr), devW+int64(dw)
		d.primary.Load(gOld, dr)
		d.primary.Store(gNew, dw)
		if br > 0 {
			budR += int64(br)
			d.overflow.Load(gOld, br)
		}
		if bw > 0 {
			budW += int64(bw)
			d.overflow.Store(gNew, bw)
		}
	}
	d.traffic.migrationBytes.Add(uint64(moved))
	d.traffic.deviceReadBytes.Add(uint64(devR))
	d.traffic.deviceWriteBytes.Add(uint64(devW))
	d.traffic.buddyReadBytes.Add(uint64(budR))
	d.traffic.buddyWriteBytes.Add(uint64(budW))
	return moved, nil
}

// retargetDone reports whether a retarget of a to target has nothing to do
// (already at target), or fails: a freed allocation, or one whose target no
// longer matches expectOld. Caller must hold dev.mu.
func (a *Allocation) retargetDone(target TargetRatio, expectOld *TargetRatio) (bool, error) {
	switch {
	case a.freed:
		return false, a.errFreed()
	case expectOld != nil && a.target != *expectOld:
		return false, fmt.Errorf("core: %s is at %s, plan expected %s: %w",
			a.Name, a.target, *expectOld, errStaleDecision)
	}
	return a.target == target, nil
}

// MigrationStats reports what ApplyReprofile actually did.
type MigrationStats struct {
	// Applied counts decisions executed; Skipped counts decisions whose
	// allocation was gone or whose current target no longer matched the
	// plan's Old (e.g. freed or retargeted since the plan was computed).
	Applied, Skipped int
	// MigratedBytes is the stored compressed bytes re-packed between
	// layouts — the actual counterpart of ReprofilePlan.TotalMigrationBytes.
	MigratedBytes int64
}

// ApplyReprofile executes a checkpoint-time ReprofilePlan on the live
// device: each decision's allocation is migrated from its Old target to its
// New one with Retarget, concurrently with reader/writer traffic.
// Decisions that no longer match the device (allocation freed, or its
// target already changed) are skipped, so a stale plan degrades to a
// partial application rather than corrupting accounting. On error the
// already-applied decisions remain in force.
func (d *Device) ApplyReprofile(plan *ReprofilePlan) (MigrationStats, error) {
	var st MigrationStats
	if plan == nil {
		return st, nil
	}
	for _, dec := range plan.Decisions {
		a := d.allocByName(dec.Name)
		if a == nil {
			st.Skipped++
			continue
		}
		// The stale check happens inside retarget, under dev.mu: a Free or
		// Retarget racing in after the lookup turns into a skip, never a
		// misdirected migration.
		moved, err := d.retarget(a, dec.New, &dec.Old)
		if errors.Is(err, ErrFreed) || errors.Is(err, errStaleDecision) {
			st.Skipped++
			continue
		}
		if err != nil {
			return st, fmt.Errorf("core: reprofile %s %s->%s: %w", dec.Name, dec.Old, dec.New, err)
		}
		st.Applied++
		st.MigratedBytes += moved
	}
	return st, nil
}

// allocByName returns the first live allocation with the given name, nil if
// none.
func (d *Device) allocByName(name string) *Allocation {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, a := range d.allocs {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Targets returns the name -> target map of the live allocations — the
// ground-truth "current" input for the next PlanReprofile. Read it from the
// device after ApplyReprofile rather than mirroring decisions by hand: a
// skipped decision never applied, so a hand-maintained map would drift.
func (d *Device) Targets() map[string]TargetRatio {
	d.mu.RLock()
	defer d.mu.RUnlock()
	m := make(map[string]TargetRatio, len(d.allocs))
	for _, a := range d.allocs {
		m[a.Name] = a.target
	}
	return m
}

// ReprofileHorizon returns the access horizon the device amortizes
// migrations over (the WithReprofileHorizon option).
func (d *Device) ReprofileHorizon() int64 { return d.cfg.ReprofileHorizon }

// ReprofileWorthwhile reports whether applying the plan pays for itself
// within the device's configured horizon — the go/no-go a long-running
// serving loop asks at every checkpoint before calling ApplyReprofile.
func (d *Device) ReprofileWorthwhile(plan *ReprofilePlan) bool {
	return plan != nil && plan.Worthwhile(d.cfg.ReprofileHorizon)
}
