package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"buddy/internal/compress"
	"buddy/internal/core"
)

// The traced run gives the per-layer metrics. Half of its timed phase runs
// untraced, for the runtime counters; the other half alternates untraced
// and traced rounds, so the tracing overhead compares rounds that ran side
// by side, and ends early once the span buffer has no room for another
// whole traced round. Then one round's request stream is replayed one
// layer down at each public boundary — pool Submit/Wait, bare core.Device
// WriteAt/ReadAt, Codec AppendCompressed/DecompressInto — single-threaded,
// so a layer's self time is its time minus the layer below. Last, a
// relocation probe times every relocation call on the workload's own pool
// while a reader keeps I/O going beside it.

type runtimeCounters struct{ allocBytes, gcCycles uint64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeCounters{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

func traced(w workload, d time.Duration, cfg config, res *result, log io.Writer) error {
	in := w.base()
	rt0 := readRuntime()
	base, err := runRounds(w, d/2, res)
	if err != nil {
		return err
	}
	rt1 := readRuntime()
	set := newSpanSet()
	st0 := in.p.Stats()
	plain, tr, err := alternateRounds(w, d/2, set, res)
	if err != nil {
		return err
	}
	st1 := in.p.Stats()
	spans, dropped := set.all()
	if dropped > 0 {
		return fmt.Errorf("traced rounds: %d spans past the buffer of %d", dropped, maxSpans)
	}
	printTotals(log, totalsByName(spans))
	if err := writeSpans(cfg.spans, spans); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(log, "%d traced rounds in %.2fs, %d spans written to %s\n", tr.rounds, tr.wall.Seconds(), len(spans), cfg.spans)

	lt, err := replay(w, res)
	if err != nil {
		return err
	}
	pr, err := relocationProbe(in, res)
	if err != nil {
		return err
	}
	fmt.Fprintf(log, "relocation probe: reader latency µs %s\n", pr.io)

	su := in.setup
	mb := float64(base.payload) / 1e6
	entries := float64(lt.wEntries + lt.rEntries)
	coreNs := float64(lt.coreW + lt.coreR)
	last := tr.last.stats.Traffic
	async := st1.Async.CoalescedTasks - st0.Async.CoalescedTasks
	submitted := st1.Async.Submitted - st0.Async.Submitted

	put(res, "compress.encode_ns_per_entry", float64(lt.enc)/float64(lt.wEntries))
	put(res, "compress.decode_ns_per_entry", float64(lt.dec)/float64(lt.rEntries))
	put(res, "compress.sectors_per_entry", float64(lt.sectors)/entries)
	put(res, "core.write_ns_per_entry", float64(lt.coreW)/float64(lt.wEntries))
	put(res, "core.read_ns_per_entry", float64(lt.coreR)/float64(lt.rEntries))
	put(res, "core.self_ns_per_entry", (coreNs-float64(lt.enc+lt.dec))/entries)
	put(res, "core.buddy_access_frac", last.BuddyAccessFraction())
	put(res, "core.buddy_bytes_per_entry", float64(last.BuddyReadBytes+last.BuddyWriteBytes)/float64(last.Reads+last.Writes))
	put(res, "core.retarget_ns_per_entry", float64(pr.retarget)/float64(pr.retargetEntries))
	put(res, "core.recover_ns_per_entry", float64(pr.recover)/float64(max(pr.recoverEntries, 1)))
	put(res, "core.migration_bytes", float64(pr.migrationBytes)/float64(pr.passes))
	put(res, "core.profile_ns_per_entry", float64(su.profileNs)/float64(su.profEntries))
	put(res, "analysis.index_ns_per_entry", float64(su.indexNs)/float64(su.indexEntries))
	put(res, "workloads.generate_ns_per_kb", float64(su.genNs)/float64(su.genBytes)*1024)
	put(res, "pool.request_ns_per_entry", float64(tr.latNs)/float64(tr.entries))
	put(res, "pool.self_ns_per_entry", (float64(lt.pool)-coreNs)/entries)
	put(res, "pool.coalesced_frac", float64(async)/float64(max(submitted, 1)))
	put(res, "pool.link_busy_cycles_max", tr.first.model.linkMax)
	put(res, "pool.shard_service_skew", tr.first.model.skew)
	for _, t := range []string{"default", "batch-a", "batch-b", "latency"} {
		var p99 float64
		for _, ts := range st1.Tenants {
			if ts.Name == t {
				p99 = ts.Latency.P99
			}
		}
		put(res, "pool.tenant."+t+".p99_cycles", p99)
	}
	put(res, "pool.migrate_ns_per_entry", float64(pr.migrate)/float64(pr.migrateEntries))
	put(res, "pool.drain_ms", float64(pr.drain)/1e6/float64(pr.passes))
	put(res, "pool.io_p99_during_relocation_us", pr.io.Tail)
	put(res, "pool.relocate_mbps", float64(pr.relocatedBytes)/1e6/(float64(pr.retarget+pr.recover+pr.migrate+pr.drain)/1e9))
	put(res, "runtime.alloc_bytes_per_mb", float64(rt1.allocBytes-rt0.allocBytes)/mb)
	put(res, "runtime.gc_cycles", float64(rt1.gcCycles-rt0.gcCycles)/(mb/1e3))
	put(res, "trace.overhead_frac", 1-tr.mbps()/plain.mbps())
	fmt.Fprintf(log, "tracing overhead: untraced %.1f MB/s (p50 %.1f µs), traced %.1f MB/s (p50 %.1f µs), over %d alternating rounds each\n",
		plain.mbps(), plain.median(func(w windowStats) float64 { return w.p50 }),
		tr.mbps(), tr.median(func(w windowStats) float64 { return w.p50 }), tr.rounds)
	return nil
}

// layerTimes are one round's stream replayed at three layers, in ns.
type layerTimes struct {
	pool, coreW, coreR, enc, dec int64
	wEntries, rEntries, sectors  int64
}

// replay runs one round's I/O again, sequentially and on one OS thread,
// through the pool, a bare core.Device and the codec.
func replay(w workload, res *result) (layerTimes, error) {
	in := w.base()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var stream []request
	for _, s := range in.streams {
		stream = append(stream, s...)
	}
	var lt layerTimes

	// Pool: one client, one request outstanding, checked like the run.
	c := newClient(in.p, 1, in.maxReq)
	start := time.Now()
	err := c.run(stream)
	lt.pool = time.Since(start).Nanoseconds()
	res.Attempted += c.log.ops
	res.Failed += c.log.failed
	for t, n := range c.log.tenant {
		in.tenantIn[t] += n
	}
	if err != nil {
		return lt, fmt.Errorf("pool replay: %w", err)
	}

	// Core and codec: each allocation starts from version 0, as every round
	// does; shadow tracks what each should hold.
	dev := core.NewDevice(core.Config{Codec: compress.NewBPC(), DeviceBytes: 1 << 30})
	defer dev.Close()
	codec := compress.NewBPC()
	type state struct {
		ca      *core.Allocation
		shadow  []byte
		streams [][]byte
		sectors []int
	}
	states := make(map[*alloc]*state)
	for _, a := range in.allocs {
		ca, err := dev.Malloc(a.name, int64(len(a.vers[0])), a.target)
		if err != nil {
			return lt, fmt.Errorf("core replay: %w", err)
		}
		if _, err := ca.WriteAt(a.vers[0], 0); err != nil {
			return lt, fmt.Errorf("core replay: %w", err)
		}
		s := &state{ca: ca, shadow: bytes.Clone(a.vers[0]), streams: make([][]byte, a.entries()), sectors: make([]int, a.entries())}
		for e := range s.streams {
			var bits int
			s.streams[e], bits = codec.AppendCompressed(make([]byte, 0, compress.MaxStreamBytes), a.vers[0][e*entryBytes:(e+1)*entryBytes])
			s.sectors[e] = compress.SectorsForBits(bits)
		}
		states[a] = s
	}
	buf := make([]byte, in.maxReq)
	for _, r := range stream {
		s := states[r.a]
		first, n := r.off/entryBytes, r.n/entryBytes
		dst := buf[:r.n]
		if r.write {
			data := r.a.vers[r.ver][r.off : r.off+r.n]
			t0 := time.Now()
			_, err := s.ca.WriteAt(data, int64(r.off))
			t1 := time.Now()
			if err != nil {
				return lt, fmt.Errorf("core replay write: %w", err)
			}
			for e := first; e < first+n; e++ {
				ent := data[(e-first)*entryBytes : (e-first+1)*entryBytes]
				var bits int
				if compress.EntryAllZero(ent) {
					s.streams[e], bits = compress.AppendZeroEntry(s.streams[e][:0], codec)
				} else {
					s.streams[e], bits = codec.AppendCompressed(s.streams[e][:0], ent)
				}
				s.sectors[e] = compress.SectorsForBits(bits)
				lt.sectors += int64(s.sectors[e])
			}
			lt.enc += time.Since(t1).Nanoseconds()
			lt.coreW += t1.Sub(t0).Nanoseconds()
			lt.wEntries += int64(n)
			copy(s.shadow[r.off:], data)
			continue
		}
		t0 := time.Now()
		_, err := s.ca.ReadAt(dst, int64(r.off))
		t1 := time.Now()
		if err != nil {
			return lt, fmt.Errorf("core replay read: %w", err)
		}
		if !bytes.Equal(dst, s.shadow[r.off:r.off+r.n]) {
			return lt, fmt.Errorf("core replay: read %s@%d differs from what was written", r.a.name, r.off)
		}
		t2 := time.Now()
		for e := first; e < first+n; e++ {
			if err := codec.DecompressInto(dst[(e-first)*entryBytes:(e-first+1)*entryBytes], s.streams[e]); err != nil {
				return lt, fmt.Errorf("codec replay: %w", err)
			}
			lt.sectors += int64(s.sectors[e])
		}
		lt.dec += time.Since(t2).Nanoseconds()
		lt.coreR += t1.Sub(t0).Nanoseconds()
		lt.rEntries += int64(n)
		if !bytes.Equal(dst, s.shadow[r.off:r.off+r.n]) {
			return lt, fmt.Errorf("codec replay: decode of %s@%d differs from what was written", r.a.name, r.off)
		}
	}
	return lt, nil
}

// probeResult holds the relocation probe's timings in ns.
type probeResult struct {
	migrate, drain, retarget, recover int64
	migrateEntries, retargetEntries   int64
	recoverEntries                    int64
	relocatedBytes                    int64
	passes                            int
	migrationBytes                    uint64
	io                                latencySummary
}

// The probe repeats its relocation pass until the reader beside it has
// probeSamples latencies, enough for a p99 with ten samples beyond it.
const (
	probeSamples   = 1000
	maxProbePasses = 64
)

// relocationProbe times MigrateHandle of every allocation to the next
// shard, Drain and Reopen of shard 0, and a reprofile of every allocation
// to another target and back, while a reader keeps 16 KiB reads going and
// checks them against the model; then, with the reader stopped, Kill and
// Recover of shard 1. Everything is verified afterwards.
func relocationProbe(in *instance, res *result) (probeResult, error) {
	var pr probeResult
	p := in.p
	p.ResetTraffic()

	var reads []request
	for _, a := range in.allocs {
		reads = append(reads, chunks(a, 16<<10)...)
	}
	stop := make(chan struct{})
	var (
		wg      sync.WaitGroup
		lat     []float64
		readErr error
		ops     int64
		tenant  [4]int64
		nread   atomic.Int64
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 16<<10)
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			r := &reads[k%len(reads)]
			dst := buf[:r.n]
			start := time.Now()
			n, err := p.SubmitRead(r.a.h, dst, int64(r.off)).Wait()
			lat = append(lat, float64(time.Since(start).Nanoseconds())/1e3)
			nread.Add(1)
			ops++
			tenant[r.a.tenant] += int64(r.n)
			if err == nil && (n != r.n || !bytes.Equal(dst, r.a.model[r.off:r.off+r.n])) {
				err = fmt.Errorf("read %s@%d differs from the acknowledged contents", r.a.name, r.off)
			}
			if err != nil {
				readErr = fmt.Errorf("probe reader: %w", err)
				return
			}
		}
	}()
	ctlErr := func() error {
		timed := func(acc *int64, fn func() error) error {
			res.Attempted++
			start := time.Now()
			err := fn()
			*acc += time.Since(start).Nanoseconds()
			if err != nil {
				res.Failed++
			}
			return err
		}
		probePass := func() error {
			for _, a := range in.allocs {
				if err := timed(&pr.migrate, func() error { return p.MigrateHandle(a.h, (a.h.Shard()+1)%p.Shards()) }); err != nil {
					return fmt.Errorf("MigrateHandle %s: %w", a.name, err)
				}
				pr.migrateEntries += int64(a.entries())
				pr.relocatedBytes += int64(len(a.model))
			}
			for _, a := range in.allocs {
				if a.h.Shard() == 0 {
					pr.relocatedBytes += int64(len(a.model))
				}
			}
			if err := timed(&pr.drain, func() error { return p.Drain(0) }); err != nil {
				return fmt.Errorf("Drain: %w", err)
			}
			if err := p.Reopen(0); err != nil {
				return fmt.Errorf("Reopen: %w", err)
			}
			there, back := &core.ReprofilePlan{}, &core.ReprofilePlan{}
			for _, a := range in.allocs {
				to := core.Target1x
				if a.target == core.Target1x {
					to = core.Target2x
				}
				there.Decisions = append(there.Decisions, core.ReprofileDecision{Name: a.name, Old: a.target, New: to})
				back.Decisions = append(back.Decisions, core.ReprofileDecision{Name: a.name, Old: to, New: a.target})
				pr.retargetEntries += 2 * int64(a.entries())
				pr.relocatedBytes += 2 * int64(len(a.model))
			}
			for _, plan := range []*core.ReprofilePlan{there, back} {
				if err := timed(&pr.retarget, func() error {
					st, err := p.ApplyReprofile(plan)
					if err == nil && st.Applied != len(plan.Decisions) {
						err = fmt.Errorf("applied %d of %d decisions", st.Applied, len(plan.Decisions))
					}
					return err
				}); err != nil {
					return fmt.Errorf("ApplyReprofile: %w", err)
				}
			}
			return nil
		}
		for pr.passes == 0 || (nread.Load() < probeSamples && pr.passes < maxProbePasses) {
			pr.passes++
			if err := probePass(); err != nil {
				return err
			}
		}
		return nil
	}()
	close(stop)
	wg.Wait()
	res.Attempted += ops
	if readErr != nil {
		res.Failed++
	}
	for t, n := range tenant {
		in.tenantIn[t] += n
	}
	if err := errors.Join(ctlErr, readErr); err != nil {
		return pr, err
	}
	pr.io = summarize(lat)
	pr.migrationBytes = p.Stats().Traffic.MigrationBytes

	if err := in.inj.Kill(1); err != nil {
		return pr, fmt.Errorf("Kill: %w", err)
	}
	start := time.Now()
	rs, err := p.Recover(1)
	pr.recover = time.Since(start).Nanoseconds()
	res.Attempted += 2
	if err != nil {
		res.Failed++
		return pr, fmt.Errorf("Recover: %w", err)
	}
	pr.recoverEntries = int64(rs.Entries)
	pr.relocatedBytes += int64(rs.Entries) * entryBytes
	return pr, in.verifyAll()
}
