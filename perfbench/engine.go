package main

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"buddy/internal/compress"
	"buddy/internal/core"
	"buddy/internal/dram"
	"buddy/internal/nvlink"
	"buddy/internal/pool"
)

// alloc is one pool allocation the benchmark drives, together with the
// benchmark's own model of what it holds. The model is what reads are
// checked against; it changes only when a write is acknowledged.
type alloc struct {
	name   string
	tenant int // index into instance.tenants
	target core.TargetRatio
	// vers are the contents a write may store; version 0 is the initial
	// load. sectors[v][e] is entry e of vers[v]'s compressed sector count,
	// from calling the codec on the entry directly.
	vers    [][]byte
	sectors [][]uint8
	model   []byte
	// modelSec is the sector count of each entry of model.
	modelSec []uint8
	h        *pool.Handle
	home     int // shard after the initial load
}

// measure fills sectors by encoding every entry of every version.
func (a *alloc) measure(c compress.Codec) {
	scratch := make([]byte, 0, compress.MaxStreamBytes)
	a.sectors = make([][]uint8, len(a.vers))
	for v, data := range a.vers {
		s := make([]uint8, len(data)/entryBytes)
		for e := range s {
			stream, bits := c.AppendCompressed(scratch[:0], data[e*entryBytes:(e+1)*entryBytes])
			scratch = stream[:0]
			s[e] = uint8(compress.SectorsForBits(bits))
		}
		a.sectors[v] = s
	}
	a.model = bytes.Clone(a.vers[0])
	a.modelSec = append([]uint8(nil), a.sectors[0]...)
}

func (a *alloc) entries() int { return len(a.vers[0]) / entryBytes }

// request is one I/O request of a workload's fixed stream.
type request struct {
	a     *alloc
	off   int
	n     int
	write bool
	ver   int // version written
}

// ioLog is what one client observed: latencies, payload, operations and the
// traffic the split rule expects for the entries it touched.
type ioLog struct {
	lat     []float64 // µs, Submit until Wait returns
	latNs   int64
	payload int64
	entries int64
	ops     int64
	failed  int64
	exp     traffic
	tenant  [4]int64 // bytes submitted per tenant index
}

// reset clears the per-round fields, keeping the latency buffer's storage.
func (l *ioLog) reset() {
	*l = ioLog{lat: l.lat[:0]}
}

// client issues a request stream with a fixed window of requests
// outstanding: a closed loop that submits the next request only after the
// oldest one completes.
type client struct {
	p    *pool.Pool
	bufs [][]byte
	tr   *tracer // nil in an untraced round
	buf  *tracer // the span buffer of its traced rounds
	log  ioLog
}

func newClient(p *pool.Pool, window, maxReq int) *client {
	c := &client{p: p, bufs: make([][]byte, window)}
	for i := range c.bufs {
		c.bufs[i] = make([]byte, maxReq)
	}
	return c
}

type inflight struct {
	r     *request
	f     *pool.Future
	buf   []byte
	start time.Time
	id    uint64
}

// run issues reqs in order with len(c.bufs) requests outstanding and checks
// every completion against the model.
func (c *client) run(reqs []request) error {
	window := len(c.bufs)
	slots := make([]inflight, window)
	for i := 0; i < len(reqs)+window; i++ {
		s := &slots[i%window]
		if s.r != nil {
			if err := c.finish(s); err != nil {
				return err
			}
			s.r = nil
		}
		if i < len(reqs) {
			c.start(s, &reqs[i], c.bufs[i%window])
		}
	}
	return nil
}

func (c *client) start(s *inflight, r *request, buf []byte) {
	s.r, s.buf, s.id = r, buf[:r.n], c.tr.id()
	s.start = time.Now()
	name := "pool.SubmitRead"
	if r.write {
		name = "pool.SubmitWrite"
		s.f = c.p.SubmitWrite(r.a.h, r.a.vers[r.ver][r.off:r.off+r.n], int64(r.off))
	} else {
		s.f = c.p.SubmitRead(r.a.h, s.buf, int64(r.off))
	}
	if c.tr != nil {
		c.tr.add(c.tr.id(), s.id, s.id, name, s.start, time.Now())
	}
	c.log.tenant[r.a.tenant] += int64(r.n)
}

func (c *client) finish(s *inflight) error {
	w0 := time.Now()
	n, err := s.f.Wait()
	end := time.Now()
	if c.tr != nil {
		c.tr.add(c.tr.id(), s.id, s.id, "pool.Future.Wait", w0, end)
		c.tr.add(s.id, 0, s.id, "request", s.start, end)
	}
	c.log.ops++
	if err == nil && n != s.r.n {
		err = fmt.Errorf("short transfer: %d of %d bytes", n, s.r.n)
	}
	if err != nil {
		c.log.failed++
		return fmt.Errorf("%s %s@%d: %w", op(s.r), s.r.a.name, s.r.off, err)
	}
	ns := end.Sub(s.start).Nanoseconds()
	c.log.lat = append(c.log.lat, float64(ns)/1e3)
	c.log.latNs += ns
	return complete(s.r, s.buf, &c.log)
}

func op(r *request) string {
	if r.write {
		return "write"
	}
	return "read"
}

// complete applies an acknowledged request to the model: a write replaces
// the model's bytes, a read must match them. Either way the entries' split
// traffic is added to the expected totals.
func complete(r *request, buf []byte, log *ioLog) error {
	a := r.a
	first, last := r.off/entryBytes, (r.off+r.n)/entryBytes
	if r.write {
		copy(a.model[r.off:r.off+r.n], a.vers[r.ver][r.off:r.off+r.n])
		for e := first; e < last; e++ {
			s := a.sectors[r.ver][e]
			a.modelSec[e] = s
			log.exp.add(a.target, int(s), true)
		}
	} else {
		if !bytes.Equal(buf, a.model[r.off:r.off+r.n]) {
			return fmt.Errorf("read %s@%d: %d bytes differ from the acknowledged contents", a.name, r.off, r.n)
		}
		for e := first; e < last; e++ {
			log.exp.add(a.target, int(a.modelSec[e]), false)
		}
	}
	log.payload += int64(r.n)
	log.entries += int64(last - first)
	return nil
}

// chunks splits an allocation into requests of at most size bytes.
func chunks(a *alloc, size int) []request {
	var out []request
	for off := 0; off < len(a.vers[0]); off += size {
		out = append(out, request{a: a, off: off, n: min(size, len(a.vers[0])-off)})
	}
	return out
}

// instance is one set-up workload: its pool, its allocations and the
// request streams of one round.
type instance struct {
	p       *pool.Pool
	inj     *pool.FailureInjector
	allocs  []*alloc
	tenants []string // tenant index -> pool tenant name
	// streams[c] is client c's requests for one round, and window its
	// outstanding-request count.
	streams [][]request
	window  int
	maxReq  int
	// windowSamples is the latency count of one host-time window (see
	// phase): about a quarter of a second of the workload's requests.
	windowSamples int
	clients       []*client
	setup         setupTimings
	tenantIn      [4]int64 // bytes submitted per tenant since the pool was built
	// latBuf holds the latencies of the round in progress; rounds reuse it,
	// so the timed phase makes no garbage of its own.
	latBuf []float64
}

// load places every allocation and writes version 0 through the
// submission queues.
func (in *instance) load() error {
	var futs []*pool.Future
	for _, a := range in.allocs {
		var err error
		if a.tenant == 0 {
			a.h, err = in.p.Malloc(a.name, int64(len(a.vers[0])), a.target)
		} else {
			var tn *pool.Tenant
			if tn, err = in.p.Tenant(in.tenants[a.tenant]); err == nil {
				a.h, err = tn.Malloc(a.name, int64(len(a.vers[0])), a.target)
			}
		}
		if err != nil {
			return fmt.Errorf("malloc %s: %w", a.name, err)
		}
		a.home = a.h.Shard()
		futs = append(futs, in.p.SubmitWrite(a.h, a.vers[0], 0))
		in.tenantIn[a.tenant] += int64(len(a.vers[0]))
	}
	for i, f := range futs {
		if _, err := f.Wait(); err != nil {
			return fmt.Errorf("load %s: %w", in.allocs[i].name, err)
		}
	}
	return nil
}

// prepare builds the benchmark's model of every allocation and the
// clients. It runs once, after the timed set-ups.
func (in *instance) prepare() {
	c := compress.NewBPC()
	for _, a := range in.allocs {
		a.measure(c)
	}
	in.clients = make([]*client, len(in.streams))
	for i := range in.clients {
		in.clients[i] = newClient(in.p, in.window, in.maxReq)
	}
}

func (in *instance) close() {
	_ = in.p.Close() // the instance is discarded; queued work has finished
	for i := 0; i < in.p.Shards(); i++ {
		_ = in.p.Device(i).Close() // never fails
	}
}

// runClients runs each client's stream concurrently, one goroutine per
// client, and returns the first error.
func (in *instance) runClients(set *spanSet, streams [][]request) error {
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for i := range streams {
		c := in.clients[i]
		c.tr = set.tracer(&c.buf)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.run(streams[i])
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// collect folds the clients' logs into r and the tenant ledger.
func (in *instance) collect(r *roundResult) {
	r.lat = in.latBuf[:0]
	defer func() { in.latBuf = r.lat }()
	for _, c := range in.clients {
		l := &c.log
		r.lat = append(r.lat, l.lat...)
		r.latNs += l.latNs
		r.payload += l.payload
		r.entries += l.entries
		r.ops += l.ops
		r.failed += l.failed
		r.exp.plus(l.exp)
		for t, n := range l.tenant {
			in.tenantIn[t] += n
		}
		l.reset()
	}
}

// ownRatio is the capacity compression the targets the benchmark assigned
// give: logical bytes over device reservation.
func (in *instance) ownRatio() float64 {
	var orig, dev int64
	for _, a := range in.allocs {
		orig += int64(len(a.vers[0]))
		dev += int64(a.entries()) * int64(a.target.DeviceBytes())
	}
	return float64(orig) / float64(dev)
}

func (in *instance) checkRatio() error {
	if got, want := in.p.CompressionRatio(), in.ownRatio(); got != want {
		return fmt.Errorf("Pool.CompressionRatio %v, assigned targets give %v", got, want)
	}
	return nil
}

// verifyAll reads every allocation back synchronously, compares it with
// the model and the pool's traffic counters with the split rule, and checks
// the compression ratio. It resets the pool's traffic counters.
func (in *instance) verifyAll() error {
	in.p.ResetTraffic()
	var want traffic
	for _, a := range in.allocs {
		buf := make([]byte, len(a.model))
		if n, err := a.h.ReadAt(buf, 0); err != nil || n != len(buf) {
			return fmt.Errorf("verify %s: read %d bytes: %v", a.name, n, err)
		}
		if !bytes.Equal(buf, a.model) {
			return fmt.Errorf("verify %s: contents differ from the acknowledged writes", a.name)
		}
		for _, s := range a.modelSec {
			want.add(a.target, int(s), false)
		}
	}
	if err := checkTraffic(want, in.p.Stats().Traffic); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	return in.checkRatio()
}

// checkTenants compares each tenant's completed bytes with the bytes the
// benchmark submitted for it.
func (in *instance) checkTenants() error {
	for i, name := range in.tenants {
		tn, err := in.p.Tenant(name)
		if err != nil {
			return err
		}
		if got := tn.Stats().ServedBytes; int64(got) != in.tenantIn[i] {
			return fmt.Errorf("tenant %s: %d bytes completed, %d submitted", name, got, in.tenantIn[i])
		}
	}
	return nil
}

// modeled is the Tab. 2 model's view of one round: payload over the slowest
// shard's device-transfer plus link-busy cycles, as in the serve
// experiment. The cycles are computed from the byte counters, whose sums
// do not depend on the order requests ran in; metadata-cache fills are left
// out because the cache's hits do.
type modeled struct {
	gbps, linkMax, skew float64
}

func modelRound(st pool.Stats, payload int64) modeled {
	hbm, link := dram.DefaultConfig(), nvlink.DefaultConfig()
	devBPC := hbm.BandwidthGBs / hbm.CoreClockGHz
	linkBPC := link.BandwidthGBs / link.CoreClockGHz
	var m modeled
	var slowest, sum float64
	for _, s := range st.Shards {
		t := s.Traffic
		dev := float64(t.DeviceReadBytes-t.MetadataFillBytes+t.DeviceWriteBytes) / devBPC
		c := dev + float64(max(t.BuddyReadBytes, t.BuddyWriteBytes))/linkBPC
		slowest = max(slowest, c)
		sum += c
		m.linkMax = max(m.linkMax, s.LinkReadBusyCycles, s.LinkWriteBusyCycles)
	}
	if slowest > 0 {
		m.gbps = float64(payload) / (slowest / (hbm.CoreClockGHz * 1e9)) / 1e9
		m.skew = slowest / (sum / float64(len(st.Shards)))
	}
	return m
}

// roundResult is one round's outcome.
type roundResult struct {
	wall    time.Duration
	cpu     time.Duration
	lat     []float64
	latNs   int64
	payload int64
	entries int64
	ops     int64
	failed  int64
	exp     traffic
	ratio   float64
	model   modeled
	stats   pool.Stats
}
