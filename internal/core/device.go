package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"buddy/internal/compress"
	"buddy/internal/nvlink"
)

// EntryBytes is the compression granularity: one 128 B memory-entry.
const EntryBytes = compress.EntryBytes

// MaxStreamBytes is the largest framed compressed stream one entry can
// produce — the scratch capacity entry-stream consumers (ExportEntry
// callers) size their buffers to.
const MaxStreamBytes = compress.MaxStreamBytes

// Config parameterizes a Buddy Compression device.
type Config struct {
	// Codec is the memory compression algorithm (default BPC, §2.4). It
	// must be safe for concurrent use: the bulk data path fans it out
	// across a worker pool.
	Codec compress.Codec
	// DeviceBytes is the GPU device memory capacity available for
	// compressed allocations.
	DeviceBytes int64
	// CarveoutFactor sizes the buddy carve-out relative to device memory;
	// 3x supports a 4x maximum target ratio (§3.2).
	CarveoutFactor int
	// Overflow is the storage tier for sectors that spill past the target
	// ratio. Nil selects the paper's design: an NVLink buddy carve-out of
	// DeviceBytes*CarveoutFactor.
	Overflow Backend
	// Link configures the interconnect of the default carve-out tier; the
	// zero value is NVLink2 (150 GB/s full-duplex). Ignored when Overflow
	// is set.
	Link nvlink.Config
	// MetadataCacheBytes is the total metadata cache capacity (§3.5:
	// 4 KB per DRAM-channel slice).
	MetadataCacheBytes int
	// MetadataCacheSlices is the number of slices (§3.2: 8).
	MetadataCacheSlices int
	// MetadataCacheWays is the associativity (§3.2: 4).
	MetadataCacheWays int
	// ReprofileHorizon is the access horizon the device uses when judging
	// whether a checkpoint-time ReprofilePlan pays for itself (§3.4
	// extension): the migration cost must be repaid by the buddy-access
	// reduction within this many memory accesses.
	ReprofileHorizon int64
}

// DefaultConfig returns the paper's final design parameters (§3.5) with a
// 12 GB device (Titan Xp class, as in the DL case study).
func DefaultConfig() Config {
	return Config{
		Codec:               compress.NewBPC(),
		DeviceBytes:         12 << 30,
		CarveoutFactor:      3,
		Link:                nvlink.DefaultConfig(),
		MetadataCacheBytes:  64 << 10,
		MetadataCacheSlices: 8,
		MetadataCacheWays:   4,
		ReprofileHorizon:    1 << 30,
	}
}

// Traffic holds a snapshot of a Device's byte-level traffic counters.
type Traffic struct {
	// DeviceReadBytes and DeviceWriteBytes count device-memory data traffic.
	DeviceReadBytes  uint64
	DeviceWriteBytes uint64
	// BuddyReadBytes and BuddyWriteBytes count interconnect traffic to the
	// overflow tier.
	BuddyReadBytes  uint64
	BuddyWriteBytes uint64
	// MetadataFillBytes counts device reads caused by metadata cache misses.
	MetadataFillBytes uint64
	// MigrationBytes counts stored compressed bytes re-packed between
	// layouts by ApplyReprofile/Retarget (the §3.4 migration cost; the
	// device- and buddy-side transfers of each move are also folded into
	// the byte counters above).
	MigrationBytes uint64
	// Reads and Writes count entry-level operations; BuddyAccesses counts
	// operations that touched the overflow tier (the numerator of Fig. 7/9).
	Reads         uint64
	Writes        uint64
	BuddyAccesses uint64
}

// BuddyAccessFraction returns the fraction of entry accesses that touched
// the overflow tier.
func (t Traffic) BuddyAccessFraction() float64 {
	total := t.Reads + t.Writes
	if total == 0 {
		return 0
	}
	return float64(t.BuddyAccesses) / float64(total)
}

// trafficCounters is the device's live (atomic) form of Traffic.
type trafficCounters struct {
	deviceReadBytes, deviceWriteBytes atomic.Uint64
	buddyReadBytes, buddyWriteBytes   atomic.Uint64
	metadataFillBytes                 atomic.Uint64
	migrationBytes                    atomic.Uint64
	reads, writes, buddyAccesses      atomic.Uint64
}

func (t *trafficCounters) snapshot() Traffic {
	return Traffic{
		DeviceReadBytes:   t.deviceReadBytes.Load(),
		DeviceWriteBytes:  t.deviceWriteBytes.Load(),
		BuddyReadBytes:    t.buddyReadBytes.Load(),
		BuddyWriteBytes:   t.buddyWriteBytes.Load(),
		MetadataFillBytes: t.metadataFillBytes.Load(),
		MigrationBytes:    t.migrationBytes.Load(),
		Reads:             t.reads.Load(),
		Writes:            t.writes.Load(),
		BuddyAccesses:     t.buddyAccesses.Load(),
	}
}

func (t *trafficCounters) reset() {
	t.deviceReadBytes.Store(0)
	t.deviceWriteBytes.Store(0)
	t.buddyReadBytes.Store(0)
	t.buddyWriteBytes.Store(0)
	t.metadataFillBytes.Store(0)
	t.migrationBytes.Store(0)
	t.reads.Store(0)
	t.writes.Store(0)
	t.buddyAccesses.Store(0)
}

// entryShards is the number of mutexes striping the entry space. Entries
// hash to shards by metadata byte (two entries per byte), so the
// read-modify-write on a shared metadata byte is always serialized.
const entryShards = 64

// Device is a Buddy Compression GPU memory: compressed allocations split
// between a primary device-slab tier and an overflow tier (the NVLink buddy
// carve-out in the paper's design) addressed from a global base register
// (GBBR). Compressed streams are bit-exact; placement and traffic are
// modeled at the paper's sector granularity. The software keeps the
// per-entry compressed streams in a side table because the model's 1-bit
// stream framing would otherwise straddle slot boundaries that hardware
// metadata absorbs.
//
// A Device is safe for concurrent use: the allocation table is guarded by a
// reader-writer lock, per-entry state by sharded mutexes, and traffic by
// atomic counters. Individual entry operations are atomic; a multi-entry
// ReadAt/WriteAt is not one atomic unit against concurrent writers to the
// same range. Control-plane operations (Malloc, Free, Retarget) hold mu
// exclusively; entry operations hold it shared under their shard lock.
// Lock order is mu -> entry shards.
type Device struct {
	cfg      Config
	primary  Backend
	overflow Backend
	slab     *SlabBackend // primary, concretely typed for span accounting
	mcache   *MetadataCache
	span     *spanPool // persistent span-worker pool, sized at NewDevice

	mu         sync.RWMutex // guards the allocation table below
	allocs     []*Allocation
	deviceOff  int64 // next free device-slab offset
	buddyOff   int64 // next free overflow offset
	totalEntry int
	streams    [][]byte // side table of compressed streams, by global entry
	meta       *MetadataStore
	holes      []region // retired regions available for reuse

	shards      [entryShards]sync.Mutex
	gbbr        uint64 // global buddy base address (modeled)
	traffic     trafficCounters
	metaEnabled atomic.Bool
	failed      atomic.Bool // device tier killed by Fail, not yet Recovered
	recovering  atomic.Bool // a Recover rebuild is in flight
}

// ErrOutOfMemory is returned when an allocation does not fit a tier's
// capacity.
var ErrOutOfMemory = errors.New("core: out of memory")

// NewDevice constructs a device from cfg, applying DefaultConfig values for
// zero fields.
func NewDevice(cfg Config) *Device {
	def := DefaultConfig()
	if cfg.Codec == nil {
		cfg.Codec = def.Codec
	}
	if cfg.DeviceBytes == 0 {
		cfg.DeviceBytes = def.DeviceBytes
	}
	if cfg.CarveoutFactor == 0 {
		cfg.CarveoutFactor = def.CarveoutFactor
	}
	if cfg.Link == (nvlink.Config{}) {
		// Untouched link config selects the paper's NVLink2 point, 700-cycle
		// latency included. A partially specified config is passed through:
		// nvlink.New defaults the rate fields individually and honors an
		// explicit zero latency (a meaningful model point).
		cfg.Link = def.Link
	}
	if cfg.MetadataCacheBytes == 0 {
		cfg.MetadataCacheBytes = def.MetadataCacheBytes
	}
	if cfg.MetadataCacheSlices == 0 {
		cfg.MetadataCacheSlices = def.MetadataCacheSlices
	}
	if cfg.MetadataCacheWays == 0 {
		cfg.MetadataCacheWays = def.MetadataCacheWays
	}
	if cfg.ReprofileHorizon == 0 {
		cfg.ReprofileHorizon = def.ReprofileHorizon
	}
	overflow := cfg.Overflow
	if overflow == nil {
		overflow = NewCarveoutBackend(cfg.DeviceBytes*int64(cfg.CarveoutFactor), cfg.Link)
	}
	slab := NewSlabBackend(cfg.DeviceBytes)
	d := &Device{
		cfg:      cfg,
		primary:  slab,
		slab:     slab,
		overflow: overflow,
		span:     newSpanPool(runtime.GOMAXPROCS(0)),
		meta:     NewMetadataStore(0),
		mcache:   NewMetadataCache(cfg.MetadataCacheBytes, cfg.MetadataCacheSlices, cfg.MetadataCacheWays),
		gbbr:     0x4000_0000_0000, // arbitrary carve-out base
	}
	d.metaEnabled.Store(true)
	if d.span.chunks != nil {
		// Backstop for devices discarded without Close: retire the span
		// workers when the device is collected, so a test or sweep that
		// churns devices does not accumulate parked goroutines.
		runtime.AddCleanup(d, func(sp *spanPool) { sp.close() }, d.span)
	}
	return d
}

// Close retires the device's persistent span-worker pool. The device and
// its allocations stay fully usable — batch spans simply run inline on
// their callers afterwards. Closing twice is a no-op; devices discarded
// without Close are cleaned up when garbage-collected.
func (d *Device) Close() error {
	d.span.close()
	return nil
}

// Allocation is one compressed cudaMalloc region on a device. It lives
// until Free/Close retires it; a retarget (Retarget, ApplyReprofile) may
// swap it to a new layout while I/O continues.
type Allocation struct {
	dev *Device
	// Name identifies the allocation.
	Name string
	// EntryCount is the number of 128 B memory-entries.
	EntryCount int

	size int64 // requested byte size (EntryCount*128 minus padding)

	// Current layout. Read under dev.mu (any mode); written only under
	// dev.mu held exclusively (Malloc, Retarget's swap).
	target TargetRatio
	reg    region // entry slots + device/buddy placement of the layout
	freed  bool   // set by Free; all later I/O fails with ErrFreed

	sectorCount []int // last committed compressed sector count per entry
}

// Size returns the allocation's requested byte size.
func (a *Allocation) Size() int64 { return a.size }

// Target returns the allocation's current target compression ratio. It can
// change over the allocation's lifetime through Retarget/ApplyReprofile.
func (a *Allocation) Target() TargetRatio {
	a.dev.mu.RLock()
	defer a.dev.mu.RUnlock()
	return a.target
}

// Freed reports whether the allocation has been released with Free/Close.
func (a *Allocation) Freed() bool {
	a.dev.mu.RLock()
	defer a.dev.mu.RUnlock()
	return a.freed
}

// Tiers returns the device's primary (device-slab) and overflow storage
// tiers for per-tier inspection.
func (d *Device) Tiers() (primary, overflow Backend) { return d.primary, d.overflow }

// Codec returns the device's memory compression codec.
func (d *Device) Codec() compress.Codec { return d.cfg.Codec }

// SameCodecAs reports whether two devices store interchangeable framed
// streams. Codecs are registry identities, so name equality is the framing
// contract; interface equality is deliberately not used (codec values need
// not be comparable).
func (d *Device) SameCodecAs(o *Device) bool {
	return d.cfg.Codec.Name() == o.cfg.Codec.Name()
}

// Carveout returns the overflow tier's capacity in bytes; negative means
// unbounded (e.g. the host unified-memory fallback).
func (d *Device) Carveout() int64 {
	return d.overflow.Capacity()
}

// DeviceUsed returns the device bytes reserved by live allocations.
func (d *Device) DeviceUsed() int64 { return d.primary.Used() }

// BuddyUsed returns the overflow bytes reserved by live allocations.
func (d *Device) BuddyUsed() int64 { return d.overflow.Used() }

// Traffic returns a snapshot of the accumulated traffic counters.
func (d *Device) Traffic() Traffic { return d.traffic.snapshot() }

// ResetTraffic clears traffic counters, per-tier counters and the metadata
// cache.
func (d *Device) ResetTraffic() {
	d.traffic.reset()
	d.mcache.Reset()
	d.primary.ResetTraffic()
	d.overflow.ResetTraffic()
}

// MetadataCacheHitRate exposes the metadata cache hit rate (Fig. 5b).
func (d *Device) MetadataCacheHitRate() float64 { return d.mcache.HitRate() }

// CompressionRatio returns the capacity compression the device currently
// achieves: original bytes of live allocations over their device
// reservation. This is the quantity Fig. 7 and Fig. 9 report.
func (d *Device) CompressionRatio() float64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var orig, dev int64
	for _, a := range d.allocs {
		orig += int64(a.EntryCount) * EntryBytes
		dev += int64(a.EntryCount) * int64(a.target.DeviceBytes())
	}
	if dev == 0 {
		return 1
	}
	return float64(orig) / float64(dev)
}

// Malloc reserves a compressed allocation of size bytes with the given
// target ratio. The device reservation is size/target; the remainder of
// each entry is reserved in the overflow tier (§3.2). Regions retired by
// Free are reused when a fitting hole exists, so a steady alloc/free cycle
// does not grow the entry table.
func (d *Device) Malloc(name string, size int64, target TargetRatio) (*Allocation, error) {
	if size <= 0 {
		return nil, fmt.Errorf("core: invalid allocation size %d", size)
	}
	if d.failed.Load() {
		return nil, d.errFailed()
	}
	entries := int((size + EntryBytes - 1) / EntryBytes)
	devBytes := int64(entries) * int64(target.DeviceBytes())
	buddyBytes := int64(entries) * int64(target.BuddySlotBytes())
	if err := d.primary.Reserve(devBytes); err != nil {
		return nil, err
	}
	if err := d.overflow.Reserve(buddyBytes); err != nil {
		d.primary.Release(devBytes)
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	r := d.grabRegion(regionSlots(entries), devBytes, buddyBytes)
	a := &Allocation{
		dev:         d,
		Name:        name,
		EntryCount:  entries,
		size:        size,
		target:      target,
		reg:         r,
		sectorCount: make([]int, entries),
	}
	d.allocs = append(d.allocs, a)
	return a, nil
}

func growMetadata(old *MetadataStore, n int) *MetadataStore {
	m := NewMetadataStore(n)
	copy(m.packed, old.packed)
	return m
}

// DeviceAddress returns the device byte address of entry i's first sector.
// Fixed for a given layout: compressibility changes never move data (§3.3);
// only an explicit Retarget/ApplyReprofile migration relocates the region.
func (a *Allocation) DeviceAddress(i int) uint64 {
	a.dev.mu.RLock()
	defer a.dev.mu.RUnlock()
	return uint64(a.reg.deviceOff) + uint64(i)*uint64(a.target.DeviceBytes())
}

// BuddyAddress returns the buddy-memory address (GBBR + offset) of entry
// i's overflow slot. Fixed for a given layout, like DeviceAddress.
func (a *Allocation) BuddyAddress(i int) uint64 {
	a.dev.mu.RLock()
	defer a.dev.mu.RUnlock()
	return a.dev.gbbr + uint64(a.reg.buddyOff) + uint64(i)*uint64(a.target.BuddySlotBytes())
}

// PTEFor returns the extended page-table entry for the allocation's pages.
func (a *Allocation) PTEFor() PTE {
	a.dev.mu.RLock()
	defer a.dev.mu.RUnlock()
	return PTE{Compressed: true, Target: a.target, BuddyPageOffset: uint32(a.reg.buddyOff >> 16)}
}

func (a *Allocation) checkIndex(i int) error {
	if i < 0 || i >= a.EntryCount {
		return fmt.Errorf("core: entry index %d out of range [0,%d)", i, a.EntryCount)
	}
	return nil
}

// shard returns the mutex striping entry i of the allocation, keyed by the
// entry's global index in the current layout; the caller must hold dev.mu
// (any mode), which pins the layout. Regions start at even global indexes
// and span an even number of slots (regionSlots), so the two entries
// sharing a metadata byte always live in one allocation and always hash to
// the same shard: the byte's read-modify-write stays serialized.
func (a *Allocation) shard(i int) *sync.Mutex {
	return &a.dev.shards[(a.reg.firstEntry+i)/2%entryShards]
}

func (a *Allocation) errFreed() error {
	return fmt.Errorf("core: allocation %s: %w", a.Name, ErrFreed)
}

// streamScratchPool recycles codec scratch buffers across entry operations.
// Each buffer holds one framed compressed stream; MaxStreamBytes capacity
// means the steady-state compress/decompress path never allocates.
var streamScratchPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, compress.MaxStreamBytes)
		return &b
	},
}

// WriteEntry compresses and stores a 128 B entry. Sectors beyond the target
// budget are written to the entry's fixed overflow slot; no other entry is
// disturbed regardless of compressibility changes.
//
//buddy:hotpath
func (a *Allocation) WriteEntry(i int, data []byte) error {
	scratch := streamScratchPool.Get().(*[]byte)
	err := a.writeEntry(i, data, scratch)
	streamScratchPool.Put(scratch)
	return err
}

// writeEntry is WriteEntry with a caller-held scratch buffer, so batch
// writers pay the pool round-trip once per span rather than per entry. The
// entry is encoded exactly once — the framed stream and the sector count
// both come out of the same AppendCompressed pass — and the encode runs
// outside every lock; the shard lock covers only the table update.
//
//buddy:hotpath
func (a *Allocation) writeEntry(i int, data []byte, scratch *[]byte) error {
	if err := a.checkIndex(i); err != nil {
		return err
	}
	if len(data) != EntryBytes {
		return fmt.Errorf("core: entry must be %d bytes, got %d", EntryBytes, len(data))
	}
	d := a.dev
	// All-zero entries short-circuit the codec: one 16-word probe replaces
	// the full encode, and the precomputed per-codec zero stream is
	// frame-identical to what AppendCompressed would produce. Activation-like
	// sparse traffic is dominated by this path.
	var stream []byte
	var bits int
	if compress.EntryAllZero(data) {
		stream, bits = compress.AppendZeroEntry((*scratch)[:0], d.cfg.Codec)
	} else {
		stream, bits = d.cfg.Codec.AppendCompressed((*scratch)[:0], data)
	}
	*scratch = stream[:0]
	sectors := compress.SectorsForBits(bits)

	d.mu.RLock()
	if a.freed {
		d.mu.RUnlock()
		return a.errFreed()
	}
	if d.failed.Load() {
		d.mu.RUnlock()
		return d.errFailed()
	}
	sh := a.shard(i)
	sh.Lock()
	// Copy into the entry's retained buffer (reused across rewrites) rather
	// than retaining the scratch: readers snapshot under the same lock, so
	// in-place reuse is safe and the steady state allocates nothing.
	g, t := a.reg.firstEntry+i, a.target
	d.streams[g] = append(d.streams[g][:0], stream...)
	d.meta.Set(g, sectors)
	a.sectorCount[i] = sectors
	sh.Unlock()
	d.accessMetadata(g)
	d.mu.RUnlock()

	d.traffic.writes.Add(1)
	dev, buddy := splitBytes(t, sectors)
	d.traffic.deviceWriteBytes.Add(uint64(dev))
	d.primary.Store(g, dev)
	if buddy > 0 {
		d.traffic.buddyWriteBytes.Add(uint64(buddy))
		d.traffic.buddyAccesses.Add(1)
		d.overflow.Store(g, buddy)
	}
	return nil
}

// ReadEntry fetches and decompresses entry i into dst (128 bytes).
//
//buddy:hotpath
func (a *Allocation) ReadEntry(i int, dst []byte) error {
	scratch := streamScratchPool.Get().(*[]byte)
	err := a.readEntry(i, dst, scratch)
	streamScratchPool.Put(scratch)
	return err
}

// readEntry is ReadEntry with a caller-held scratch buffer. The stored
// stream is snapshotted into the scratch under the shard lock (writers reuse
// stream buffers in place, so the reference itself must not leave the
// critical section) and decoded outside it, straight into dst.
//
//buddy:hotpath
func (a *Allocation) readEntry(i int, dst []byte, scratch *[]byte) error {
	if err := a.checkIndex(i); err != nil {
		return err
	}
	if len(dst) != EntryBytes {
		return fmt.Errorf("core: dst must be %d bytes, got %d", EntryBytes, len(dst))
	}
	d := a.dev

	d.mu.RLock()
	if a.freed {
		d.mu.RUnlock()
		return a.errFreed()
	}
	if d.failed.Load() {
		d.mu.RUnlock()
		return d.errFailed()
	}
	sh := a.shard(i)
	sh.Lock()
	g, t := a.reg.firstEntry+i, a.target
	sectors := d.meta.Get(g)
	written := d.streams[g] != nil
	*scratch = append((*scratch)[:0], d.streams[g]...)
	sh.Unlock()
	d.accessMetadata(g)
	d.mu.RUnlock()

	d.traffic.reads.Add(1)
	dev, buddy := splitBytes(t, sectors)
	d.traffic.deviceReadBytes.Add(uint64(dev))
	d.primary.Load(g, dev)
	if buddy > 0 {
		d.traffic.buddyReadBytes.Add(uint64(buddy))
		d.traffic.buddyAccesses.Add(1)
		d.overflow.Load(g, buddy)
	}

	if !written {
		// Never-written entries read as zero, like fresh cudaMalloc pages.
		clear(dst)
		return nil
	}
	if err := d.cfg.Codec.DecompressInto(dst, *scratch); err != nil {
		return fmt.Errorf("core: entry %d of %s: %w", i, a.Name, err)
	}
	return nil
}

// splitBytes returns the device and overflow byte traffic for one access to
// an entry of the given compressed sector count under target t.
func splitBytes(t TargetRatio, sectors int) (dev, buddy int) {
	if t == Target16x {
		if sectors == 0 {
			return 8, 0
		}
		return 8, sectors * 32 // metadata word read + whole entry from buddy
	}
	if sectors == 0 {
		return 32, 0 // minimum one-sector device access
	}
	devSectors := sectors
	if devSectors > t.DeviceSectors() {
		devSectors = t.DeviceSectors()
	}
	return devSectors * 32, t.OverflowSectors(sectors) * 32
}

// accessMetadata models the metadata-cache lookup on every memory access; a
// miss costs one 32 B device read (§3.2), counted separately so the
// simulator can weigh it.
func (d *Device) accessMetadata(globalEntry int) {
	if !d.metaEnabled.Load() {
		return
	}
	if !d.mcache.Access(globalEntry) {
		d.traffic.metadataFillBytes.Add(MetadataLineBytes)
		d.traffic.deviceReadBytes.Add(MetadataLineBytes)
		d.primary.Load(globalEntry, MetadataLineBytes)
	}
}

// SetMetadataCacheEnabled toggles metadata-cache modeling (used by the
// Fig. 5b sweep to re-run with different cache sizes).
func (d *Device) SetMetadataCacheEnabled(on bool) { d.metaEnabled.Store(on) }

// AllocationCount returns the number of live allocations — the cheap form
// of len(Allocations()) for occupancy views that do not need the list.
func (d *Device) AllocationCount() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.allocs)
}

// Allocations returns a copy of the live allocation list in allocation
// order; mutating the returned slice does not affect the device.
func (d *Device) Allocations() []*Allocation {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]*Allocation, len(d.allocs))
	copy(out, d.allocs)
	return out
}

// SectorCount returns entry i's last committed compressed sector count. It
// panics on an out-of-range index — a programming error, unlike the error
// returns of the I/O methods.
func (a *Allocation) SectorCount(i int) int {
	if err := a.checkIndex(i); err != nil {
		panic(err)
	}
	sh := a.shard(i)
	sh.Lock()
	defer sh.Unlock()
	return a.sectorCount[i]
}
