package core

import (
	"fmt"

	"buddy/internal/compress"
)

// Entry-stream export and import: the no-decode handoff behind the pool's
// cross-shard live migration. Entries live as framed compressed streams, so
// moving an allocation between devices never needs a decode round-trip when
// both sides speak the same codec — ExportEntry snapshots the source's
// framed bytes and sector class, ImportEntry installs them on the
// destination verbatim. Both sides account the move as migration traffic
// (Traffic.MigrationBytes counts the stored bytes once per device, so a
// clean cross-device move reads equal on source and destination) plus the
// per-tier transfer of the entry's current placement, mirroring the
// within-device Retarget.

// ExportEntry appends entry i's committed framed compressed stream to dst
// and returns the extended slice with the entry's sector count, without
// decoding. written is false for a never-written entry (nothing appended;
// such entries read as zero and need no transfer). The source accounts the
// export as a migration read: MigrationBytes grows by the stored bytes and
// the entry's device/buddy placement is read. Export works on a failed
// device — the streams are the carve-out mirror's surviving copy, which is
// exactly what maintenance reads off a dead tier.
func (a *Allocation) ExportEntry(i int, dst []byte) (stream []byte, sectors int, written bool, err error) {
	if err := a.checkIndex(i); err != nil {
		return dst, 0, false, err
	}
	d := a.dev
	d.mu.RLock()
	if a.freed {
		d.mu.RUnlock()
		return dst, 0, false, a.errFreed()
	}
	sh := a.shard(i)
	sh.Lock()
	g, t := a.reg.firstEntry+i, a.target
	sectors = d.meta.Get(g)
	written = d.streams[g] != nil
	dst = append(dst, d.streams[g]...)
	sh.Unlock()
	if written {
		stored := storedBytes(sectors)
		devR, budR := splitBytes(t, sectors)
		d.traffic.migrationBytes.Add(uint64(stored))
		d.traffic.deviceReadBytes.Add(uint64(devR))
		d.primary.Load(g, devR)
		if budR > 0 {
			d.traffic.buddyReadBytes.Add(uint64(budR))
			d.overflow.Load(g, budR)
		}
	}
	d.mu.RUnlock()
	if !written {
		return dst, 0, false, nil
	}
	return dst, sectors, true, nil
}

// ImportEntry installs a framed compressed stream as entry i's contents
// without decoding it. The stream and sector count must come from an
// ExportEntry on an allocation whose device uses the same codec — codec
// compatibility is the caller's contract; a mismatched stream surfaces as a
// decode error on the next read. The destination accounts the import as a
// migration write: MigrationBytes grows by the stored bytes and the entry's
// device/buddy placement is written.
func (a *Allocation) ImportEntry(i int, stream []byte, sectors int) error {
	if err := a.checkIndex(i); err != nil {
		return err
	}
	if sectors < 0 || sectors > compress.SectorsPerEntry {
		return fmt.Errorf("core: import sector count %d out of range [0,%d]",
			sectors, compress.SectorsPerEntry)
	}
	if len(stream) == 0 {
		return fmt.Errorf("core: import of an empty stream (never-written entries need no import)")
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
	d.streams[g] = append(d.streams[g][:0], stream...)
	d.meta.Set(g, sectors)
	a.sectorCount[i] = sectors
	sh.Unlock()
	stored := storedBytes(sectors)
	devW, budW := splitBytes(t, sectors)
	d.traffic.migrationBytes.Add(uint64(stored))
	d.traffic.deviceWriteBytes.Add(uint64(devW))
	d.primary.Store(g, devW)
	if budW > 0 {
		d.traffic.buddyWriteBytes.Add(uint64(budW))
		d.overflow.Store(g, budW)
	}
	d.mu.RUnlock()
	return nil
}
