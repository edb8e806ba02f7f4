package pool

import (
	"errors"
	"fmt"

	"buddy/internal/core"
)

// ShardStats is one device's slice of the pool's aggregate view.
type ShardStats struct {
	// Shard is the shard index.
	Shard int
	// Allocs counts live allocations on the shard.
	Allocs int
	// DeviceUsed/DeviceCapacity and BuddyUsed/BuddyCapacity are the two
	// tiers' occupancy (negative capacity means unbounded).
	DeviceUsed, DeviceCapacity int64
	BuddyUsed, BuddyCapacity   int64
	// Traffic is the device's byte-level traffic snapshot.
	Traffic core.Traffic
	// MetadataCacheHitRate is the device's metadata cache hit rate.
	MetadataCacheHitRate float64
	// LinkReadBusyCycles and LinkWriteBusyCycles are the overflow
	// interconnect's accumulated busy cycles per direction (zero when the
	// overflow tier is not a buddy carve-out). Busy cycles count time
	// actually spent transferring — idle gaps between requests excluded —
	// so they divide by a horizon to give true utilization.
	LinkReadBusyCycles, LinkWriteBusyCycles float64
	// Draining and Failed are the shard's lifecycle flags (see Drain and
	// the failure injector); both false on a healthy shard.
	Draining bool
	Failed   bool
}

// AsyncStats is the async serving path's telemetry: how much of the
// submitted traffic the shard workers managed to batch.
type AsyncStats struct {
	// Submitted counts tasks accepted onto the submission queues.
	Submitted uint64
	// CoalescedTasks counts submitted tasks that executed inside a
	// coalesced run (a batch of 2+ adjacent tasks dispatched as one entry
	// span); CoalescedRuns counts the runs themselves.
	CoalescedTasks uint64
	CoalescedRuns  uint64
}

// CoalescedFrac returns the fraction of submitted tasks that executed
// inside a coalesced run.
func (a AsyncStats) CoalescedFrac() float64 {
	if a.Submitted == 0 {
		return 0
	}
	return float64(a.CoalescedTasks) / float64(a.Submitted)
}

// Stats is the pool-wide aggregate of the per-shard telemetry.
type Stats struct {
	// Shards holds one entry per shard, in shard order.
	Shards []ShardStats
	// Traffic is the element-wise sum of every shard's traffic counters.
	Traffic core.Traffic
	// Allocs, DeviceUsed, DeviceCapacity and BuddyUsed are fleet totals.
	Allocs         int
	DeviceUsed     int64
	DeviceCapacity int64
	BuddyUsed      int64
	// MetadataCacheHitRate is the access-weighted mean of the shards' hit
	// rates (weighted by each shard's entry accesses, so idle shards do
	// not dilute the fleet number).
	MetadataCacheHitRate float64
	// Async is the submission-queue coalescing telemetry.
	Async AsyncStats
	// Tenants holds per-tenant serving telemetry — quota occupancy,
	// admission rejections, queue depth and the modeled latency
	// distribution — default tenant first, the rest in sorted name order.
	Tenants []TenantStats
	// Latency is the fleet-wide modeled completion-latency distribution
	// (every tenant's histogram summed), in device+link cycles.
	Latency LatencyDist
}

func addTraffic(a, b core.Traffic) core.Traffic {
	return core.Traffic{
		DeviceReadBytes:   a.DeviceReadBytes + b.DeviceReadBytes,
		DeviceWriteBytes:  a.DeviceWriteBytes + b.DeviceWriteBytes,
		BuddyReadBytes:    a.BuddyReadBytes + b.BuddyReadBytes,
		BuddyWriteBytes:   a.BuddyWriteBytes + b.BuddyWriteBytes,
		MetadataFillBytes: a.MetadataFillBytes + b.MetadataFillBytes,
		MigrationBytes:    a.MigrationBytes + b.MigrationBytes,
		Reads:             a.Reads + b.Reads,
		Writes:            a.Writes + b.Writes,
		BuddyAccesses:     a.BuddyAccesses + b.BuddyAccesses,
	}
}

// Stats aggregates every shard's traffic, capacity and metadata-cache
// telemetry into one fleet view.
func (p *Pool) Stats() Stats {
	st := Stats{Shards: make([]ShardStats, len(p.devices))}
	var weightedHits, weight float64
	for i, d := range p.devices {
		primary, overflow := d.Tiers()
		s := ShardStats{
			Shard:                i,
			Allocs:               d.AllocationCount(),
			DeviceUsed:           d.DeviceUsed(),
			DeviceCapacity:       primary.Capacity(),
			BuddyUsed:            d.BuddyUsed(),
			BuddyCapacity:        overflow.Capacity(),
			Traffic:              d.Traffic(),
			MetadataCacheHitRate: d.MetadataCacheHitRate(),
		}
		if c, ok := overflow.(*core.CarveoutBackend); ok {
			s.LinkReadBusyCycles, s.LinkWriteBusyCycles = c.LinkOccupancy()
		}
		switch p.state[i].Load() {
		case shardDraining:
			s.Draining = true
		case shardFailed:
			s.Failed = true
		}
		st.Shards[i] = s
		st.Traffic = addTraffic(st.Traffic, s.Traffic)
		st.Allocs += s.Allocs
		st.DeviceUsed += s.DeviceUsed
		st.DeviceCapacity += s.DeviceCapacity
		st.BuddyUsed += s.BuddyUsed
		accesses := float64(s.Traffic.Reads + s.Traffic.Writes)
		weightedHits += s.MetadataCacheHitRate * accesses
		weight += accesses
	}
	if weight > 0 {
		st.MetadataCacheHitRate = weightedHits / weight
	}
	st.Async = AsyncStats{
		Submitted:      p.async.submitted.Load(),
		CoalescedTasks: p.async.coalescedTasks.Load(),
		CoalescedRuns:  p.async.coalescedRuns.Load(),
	}
	st.Tenants = make([]TenantStats, len(p.tenants))
	var fleet [latBuckets]uint64
	for i, t := range p.tenants {
		st.Tenants[i] = t.stats()
		t.lat.snapshotInto(&fleet)
	}
	st.Latency = distFrom(&fleet)
	return st
}

// ResetTraffic clears every shard's traffic counters and metadata caches.
func (p *Pool) ResetTraffic() {
	for _, d := range p.devices {
		d.ResetTraffic()
	}
}

// CompressionRatio returns the fleet-wide capacity compression: original
// bytes of live allocations over their device reservations, across all
// shards.
func (p *Pool) CompressionRatio() float64 {
	var orig, dev float64
	for _, d := range p.devices {
		for _, a := range d.Allocations() {
			orig += float64(a.EntryCount) * core.EntryBytes
			dev += float64(a.EntryCount) * float64(a.Target().DeviceBytes())
		}
	}
	if dev == 0 {
		return 1
	}
	return orig / dev
}

// Targets returns the fleet-wide name -> target map of live allocations —
// the "current" input for the next PlanReprofile. Names are unique per
// shard but the pool does not enforce global uniqueness; a duplicate name
// resolves to the highest shard's allocation, mirroring ApplyReprofile's
// routing.
func (p *Pool) Targets() map[string]core.TargetRatio {
	m := make(map[string]core.TargetRatio)
	for _, d := range p.devices {
		for name, t := range d.Targets() {
			m[name] = t
		}
	}
	return m
}

// ApplyReprofile executes a checkpoint-time plan across the fleet: each
// decision resolves to the live handle of that name (for a duplicate name,
// the highest shard's, as in Targets) and is applied under the handle's
// control lock, so a reprofile serializes with MigrateHandle and Close on
// the same handle. Decisions naming no live handle, or whose handle is no
// longer at the plan's Old target, are skipped. A decision that fails is
// reported in the joined error; the others still apply.
func (p *Pool) ApplyReprofile(plan *core.ReprofilePlan) (core.MigrationStats, error) {
	var st core.MigrationStats
	if plan == nil || len(plan.Decisions) == 0 {
		return st, nil
	}
	byName := make(map[string]*Handle)
	for _, h := range p.Handles() { // ordered by shard: the highest wins
		byName[h.name] = h
	}
	var errs []error
	for _, dec := range plan.Decisions {
		h := byName[dec.Name]
		if h == nil {
			st.Skipped++
			continue
		}
		moved, applied, err := h.reprofile(dec)
		switch {
		case err != nil:
			errs = append(errs, err)
		case applied:
			st.Applied++
			st.MigratedBytes += moved
		default:
			st.Skipped++
		}
	}
	return st, errors.Join(errs...)
}

// reprofile applies one decision to the handle under its control lock: a
// handle no longer at dec.Old (or closed) is stale and left alone;
// otherwise its allocation is retargeted in place on its shard and its
// quota charge re-derived from the new target.
func (h *Handle) reprofile(dec core.ReprofileDecision) (moved int64, applied bool, err error) {
	h.ctl.Lock()
	defer h.ctl.Unlock()
	h.mu.RLock()
	a, shard := h.rt.a, h.rt.shard
	h.mu.RUnlock()
	if a.Target() != dec.Old {
		return 0, false, nil
	}
	moved, err = h.pool.devices[shard].Retarget(a, dec.New)
	if errors.Is(err, core.ErrFreed) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("pool: shard %d: reprofile %s %s->%s: %w", shard, dec.Name, dec.Old, dec.New, err)
	}
	q := quotaFor(h.size, dec.New)
	h.tn.stored.Add(q - h.quota.Swap(q))
	return moved, true, nil
}
