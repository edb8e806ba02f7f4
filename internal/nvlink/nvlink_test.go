package nvlink

import (
	"math"
	"testing"
)

func TestFullDuplexIndependence(t *testing.T) {
	l := New(DefaultConfig())
	r1 := l.Request(0, Read, 1<<16)
	w1 := l.Request(0, Write, 1<<16)
	if r1 != w1 {
		t.Errorf("read (%.1f) and write (%.1f) directions must not contend", r1, w1)
	}
	r2 := l.Request(0, Read, 1<<16)
	if r2 <= r1 {
		t.Error("same-direction requests must queue")
	}
}

func TestBandwidthScaling(t *testing.T) {
	slow := New(Config{BandwidthGBs: 50, CoreClockGHz: 1.3, LatencyCycles: 0})
	fast := New(Config{BandwidthGBs: 200, CoreClockGHz: 1.3, LatencyCycles: 0})
	ts := slow.Request(0, Read, 1<<20)
	tf := fast.Request(0, Read, 1<<20)
	ratio := ts / tf
	if ratio < 3.9 || ratio > 4.1 {
		t.Errorf("4x bandwidth should be ~4x faster, got %.2fx", ratio)
	}
}

func TestUtilizationAndReset(t *testing.T) {
	l := New(DefaultConfig())
	l.Drain(0, Write, 1<<20)
	if l.TotalBytes[Write] != 1<<20 {
		t.Errorf("write bytes = %d", l.TotalBytes[Write])
	}
	if l.Utilization(Write, 100) <= 0 {
		t.Error("write direction should show utilization")
	}
	if l.Utilization(Read, 100) != 0 {
		t.Error("read direction should be idle")
	}
	l.Reset()
	if l.TotalBytes[Write] != 0 {
		t.Error("Reset should clear counters")
	}
}

func TestUtilizationIgnoresIdleGaps(t *testing.T) {
	// 1 B/cycle link: busy [0,2], idle [2,8], busy [8,9]. The old
	// busyUntil/horizon accounting reported 0.9; the true busy fraction of
	// the 10-cycle horizon is 0.3.
	l := New(Config{BandwidthGBs: 1.3, CoreClockGHz: 1.3, LatencyCycles: 0})
	l.Request(0, Read, 2)
	l.Request(8, Read, 1)
	if got, want := l.Utilization(Read, 10), 0.3; math.Abs(got-want) > 1e-9 {
		t.Errorf("Utilization with idle gap = %.3f, want %.3f", got, want)
	}
	if got := l.BusyCycles(Read); math.Abs(got-3) > 1e-9 {
		t.Errorf("BusyCycles = %.3f, want 3", got)
	}
	// Queued (back-to-back) requests still count their full service time.
	l.Reset()
	l.Request(0, Write, 2)
	l.Drain(0, Write, 3) // queues behind the first: busy [0,5]
	if got, want := l.Utilization(Write, 10), 0.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("Utilization of queued requests = %.3f, want %.3f", got, want)
	}
	l.Reset()
	if l.BusyCycles(Write) != 0 || l.Utilization(Write, 10) != 0 {
		t.Error("Reset should clear busy-cycle accounting")
	}
}

// TestBusyCyclesOrderIndependent pins busy cycles as a function of the
// transfer set alone: summing per-transfer float service times in arrival
// order made concurrent runs of the same work differ in the last bits.
func TestBusyCyclesOrderIndependent(t *testing.T) {
	sizes := []int{96, 8, 32, 120, 8, 64, 40, 128, 24, 72, 16, 104}
	fwd, rev := New(DefaultConfig()), New(DefaultConfig())
	for i, n := range sizes {
		fwd.Request(float64(i), Read, n)
		fwd.Drain(float64(i), Write, n+8)
	}
	for i := len(sizes) - 1; i >= 0; i-- {
		rev.Drain(0, Write, sizes[i]+8)
		rev.Request(0, Read, sizes[i])
	}
	for _, dir := range []Direction{Read, Write} {
		if f, r := fwd.BusyCycles(dir), rev.BusyCycles(dir); f != r {
			t.Errorf("direction %d: busy cycles %v forward, %v reversed", dir, f, r)
		}
		if f, r := fwd.Utilization(dir, 1e6), rev.Utilization(dir, 1e6); f != r {
			t.Errorf("direction %d: utilization %v forward, %v reversed", dir, f, r)
		}
	}
}

func TestStorageConfigs(t *testing.T) {
	for _, k := range StorageKinds() {
		cfg := StorageConfig(k, 150)
		if cfg.BandwidthGBs != 150 {
			t.Errorf("%s: bandwidth not applied", k)
		}
		if cfg.LatencyCycles <= 0 {
			t.Errorf("%s: missing latency", k)
		}
	}
	peer := StorageConfig(PeerGPU, 150).LatencyCycles
	host := StorageConfig(HostCPU, 150).LatencyCycles
	dis := StorageConfig(Disaggregated, 150).LatencyCycles
	if !(peer < host && host < dis) {
		t.Errorf("latency ordering peer(%v) < host(%v) < disaggregated(%v) violated", peer, host, dis)
	}
	if HostCPU.String() == "" || PeerGPU.String() == "" || Disaggregated.String() == "" {
		t.Error("StorageKind String broken")
	}
}

func TestPartialConfigDefaultsRateFields(t *testing.T) {
	// Only the bandwidth given (the Fig. 11 sweep style): the clock must
	// default so the link has a finite rate, and zero latency is honored.
	l := New(Config{BandwidthGBs: 50})
	done := l.Request(0, Read, 1<<20)
	if math.IsInf(done, 0) || math.IsNaN(done) || done <= 0 {
		t.Fatalf("partial config produced a degenerate link: done=%f", done)
	}
	full := New(Config{BandwidthGBs: 50, CoreClockGHz: 1.3})
	if got := full.Request(0, Read, 1<<20); got != done {
		t.Errorf("partial config = %f cycles, fully specified rates = %f", done, got)
	}
}
