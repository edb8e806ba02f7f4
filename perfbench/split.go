package main

import (
	"fmt"

	"buddy/internal/core"
)

// The benchmark's own model of where an entry's bytes travel, written from
// the paper's §3.2 rule rather than taken from the program: of an entry's
// compressed sectors, min(sectors, target device sectors) are served by
// device memory and the rest cross the link to the buddy carve-out. Two
// cases refine it:
//   - an all-zero entry (0 sectors) still costs one 32 B device sector
//     access, and never touches the link;
//   - a Target16x entry keeps only an 8 B word on the device; unless the
//     entry is all zero, its whole compressed form comes over the link.

const sectorBytes = 32

// splitEntry returns the device and buddy bytes of one access to an entry
// of the given compressed sector count under target t.
func splitEntry(t core.TargetRatio, sectors int) (dev, buddy int) {
	if t == core.Target16x {
		return 8, sectors * sectorBytes
	}
	if sectors == 0 {
		return sectorBytes, 0
	}
	d := min(sectors, t.DeviceSectors())
	return d * sectorBytes, (sectors - d) * sectorBytes
}

// traffic is the expected value of the device's traffic counters for a
// stream of entry accesses.
type traffic struct {
	devRead, devWrite     int64
	buddyRead, buddyWrite int64
	reads, writes         int64
	buddyAccesses         int64
}

// add accounts one entry access.
func (x *traffic) add(t core.TargetRatio, sectors int, write bool) {
	dev, buddy := splitEntry(t, sectors)
	if write {
		x.writes++
		x.devWrite += int64(dev)
		x.buddyWrite += int64(buddy)
	} else {
		x.reads++
		x.devRead += int64(dev)
		x.buddyRead += int64(buddy)
	}
	if buddy > 0 {
		x.buddyAccesses++
	}
}

func (x *traffic) plus(y traffic) {
	x.devRead += y.devRead
	x.devWrite += y.devWrite
	x.buddyRead += y.buddyRead
	x.buddyWrite += y.buddyWrite
	x.reads += y.reads
	x.writes += y.writes
	x.buddyAccesses += y.buddyAccesses
}

// checkTraffic compares the expected totals with a pool's counters.
// Device reads caused by metadata-cache misses are modeled by the program's
// cache and carry no payload, so they are taken out before comparing.
func checkTraffic(want traffic, got core.Traffic) error {
	have := traffic{
		devRead:       int64(got.DeviceReadBytes - got.MetadataFillBytes),
		devWrite:      int64(got.DeviceWriteBytes),
		buddyRead:     int64(got.BuddyReadBytes),
		buddyWrite:    int64(got.BuddyWriteBytes),
		reads:         int64(got.Reads),
		writes:        int64(got.Writes),
		buddyAccesses: int64(got.BuddyAccesses),
	}
	if have != want {
		return fmt.Errorf("traffic counters %+v, split rule gives %+v", have, want)
	}
	return nil
}
