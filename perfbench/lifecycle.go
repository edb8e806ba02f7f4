package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"buddy/internal/analysis"
	"buddy/internal/core"
	"buddy/internal/memory"
	"buddy/internal/pool"
	"buddy/internal/workloads"
)

// lifecycle is live relocation under I/O: four 355.seismic jobs whose
// wavefields fill in across the benchmark's ten snapshots, on a 4-shard
// pool. The jobs form two groups. In each phase one client rewrites one
// group to the next snapshot in 16 KiB requests, reading each range back
// before overwriting it, while a control goroutine relocates the other
// group: PlanReprofile + ApplyReprofile for the data it now holds, a
// MigrateHandle of one job to another shard, and an allocation churned
// through Malloc, a write, a read and Close. Halfway through a round the
// I/O pauses for maintenance: Drain and Reopen of shard 0 (its residents
// then migrate home) and Kill then Recover of shard 1. A round walks
// snapshots 1..9 and back to 0, so it ends in the state it started from
// and every round repeats the same operations.
type lifecycle struct {
	*instance
	groups [2][]*alloc
	// idx[g][t] indexes group g's contents at snapshot t; phase[g][t] is
	// the I/O of rewriting group g to snapshot t; closing reads group 0.
	idx     [2][workloads.Snapshots][]*analysis.Index
	phase   [2][workloads.Snapshots][]request
	closing []request
	io      *client
	ctl     *tracer // nil in an untraced round
	ctlBuf  *tracer // the span buffer of its traced rounds
	ctlOps  int64
	ctlFail int64
}

// lifecycleSteps are the snapshots a round walks through, ending where it
// began; maintenance follows step maintainAfter.
var lifecycleSteps = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 0}

const (
	maintainAfter   = 5
	lifecycleJobs   = 4
	lifecycleShards = 4
	lifecycleReq    = 16 << 10
	churnBytes      = 32 << 10
)

func setupLifecycle(size sizes, seed uint64) (*lifecycle, error) {
	b := benchmark("355.seismic")
	lc := &lifecycle{
		instance: &instance{tenants: []string{pool.DefaultTenant}, window: 1, maxReq: lifecycleReq, windowSamples: 2500},
	}
	in := lc.instance
	raw := 0
	for j := 0; j < lifecycleJobs; j++ {
		g := j / 2
		for _, r := range b.Regions {
			a := &alloc{name: fmt.Sprintf("j%d/%s", j, r.Name)}
			n := regionSize(size.jobBytes, r.Frac)
			for t := 0; t < workloads.Snapshots; t++ {
				a.vers = append(a.vers, in.setup.region(b, r, t, n, seed+uint64(j)))
			}
			lc.groups[g] = append(lc.groups[g], a)
			in.allocs = append(in.allocs, a)
			raw += n
		}
	}
	for g, as := range lc.groups {
		for t := 0; t < workloads.Snapshots; t++ {
			snap := &memory.Snapshot{Index: t}
			for _, a := range as {
				snap.Allocations = append(snap.Allocations, &memory.Allocation{Name: a.name, Data: a.vers[t]})
			}
			lc.idx[g][t] = []*analysis.Index{in.setup.index(snap)}
		}
		targets := in.setup.profile(lc.idx[g][0])
		for _, a := range as {
			a.target = targets[a.name]
		}
	}
	var err error
	if in.p, in.inj, err = newPool(lifecycleShards, raw, nil); err != nil {
		return nil, err
	}
	if err := in.load(); err != nil {
		in.close()
		return nil, err
	}
	for g, as := range lc.groups {
		for t := 0; t < workloads.Snapshots; t++ {
			for _, a := range as {
				for _, r := range chunks(a, lifecycleReq) {
					w := r
					w.write, w.ver = true, t
					lc.phase[g][t] = append(lc.phase[g][t], r, w)
				}
			}
		}
	}
	for _, a := range lc.groups[0] {
		lc.closing = append(lc.closing, chunks(a, lifecycleReq)...)
	}
	// One round's I/O, in order, for the layer replays.
	var all []request
	for _, t := range lifecycleSteps {
		all = append(append(all, lc.phase[0][t]...), lc.phase[1][t]...)
	}
	in.streams = [][]request{append(all, lc.closing...)}
	return lc, nil
}

func (lc *lifecycle) prepare() {
	lc.instance.prepare()
	lc.io = lc.clients[0]
}

// ctlOp runs one control-plane call as a counted, traced operation.
func (lc *lifecycle) ctlOp(name string, fn func() error) error {
	lc.ctlOps++
	if err := lc.ctl.call(0, name, fn); err != nil {
		lc.ctlFail++
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// relocate reprofiles group g for the snapshot it now holds, migrates the
// group's first job to shard (home+t) mod shards, and churns one
// allocation.
func (lc *lifecycle) relocate(g, snap, t int) error {
	as := lc.groups[g]
	current := make(map[string]core.TargetRatio, len(as))
	byName := make(map[string]*alloc, len(as))
	for _, a := range as {
		current[a.name], byName[a.name] = a.target, a
	}
	var plan *core.ReprofilePlan
	if err := lc.ctlOp("core.PlanReprofileIndexes", func() error {
		plan = core.PlanReprofileIndexes(current, lc.idx[g][snap], core.FinalDesign())
		return nil
	}); err != nil {
		return err
	}
	if len(plan.Decisions) > 0 {
		if err := lc.ctlOp("pool.ApplyReprofile", func() error {
			st, err := lc.p.ApplyReprofile(plan)
			if err == nil && st.Applied != len(plan.Decisions) {
				err = fmt.Errorf("applied %d of %d decisions", st.Applied, len(plan.Decisions))
			}
			return err
		}); err != nil {
			return err
		}
		for _, d := range plan.Decisions {
			byName[d.Name].target = d.New
		}
	}
	for _, a := range as[:len(as)/2] { // the group's first job
		if err := lc.ctlOp("pool.MigrateHandle", func() error {
			return lc.p.MigrateHandle(a.h, (a.home+t)%lifecycleShards)
		}); err != nil {
			return err
		}
	}
	data := as[0].vers[snap]
	return lc.churn(data[:min(churnBytes, len(data))])
}

// churn allocates, writes, reads back and frees one short-lived allocation.
func (lc *lifecycle) churn(data []byte) error {
	h, err := lc.p.Malloc("churn", int64(len(data)), core.Target2x)
	lc.ctlOps++
	if err != nil {
		lc.ctlFail++
		return fmt.Errorf("churn malloc: %w", err)
	}
	buf := make([]byte, len(data))
	err = lc.ctlOp("pool.SubmitWrite", func() error {
		_, err := lc.p.SubmitWrite(h, data, 0).Wait()
		return err
	})
	if err == nil {
		err = lc.ctlOp("pool.SubmitRead", func() error {
			_, err := lc.p.SubmitRead(h, buf, 0).Wait()
			return err
		})
	}
	lc.tenantIn[0] += 2 * int64(len(data))
	if err == nil && !bytes.Equal(buf, data) {
		err = fmt.Errorf("churn: read back differs from the write")
	}
	if cerr := lc.ctlOp("pool.Handle.Close", h.Close); err == nil {
		err = cerr
	}
	return err
}

// maintain drains shard 0 and sends its residents home, then kills and
// recovers shard 1. I/O is paused: recovery with no request in flight
// loses nothing, and no request fails.
func (lc *lifecycle) maintain() error {
	var evacuated []*alloc
	for _, a := range lc.allocs {
		if a.h.Shard() == 0 {
			evacuated = append(evacuated, a)
		}
	}
	if err := lc.ctlOp("pool.Drain", func() error { return lc.p.Drain(0) }); err != nil {
		return err
	}
	if err := lc.ctlOp("pool.Reopen", func() error { return lc.p.Reopen(0) }); err != nil {
		return err
	}
	for _, a := range evacuated {
		if err := lc.ctlOp("pool.MigrateHandle", func() error { return lc.p.MigrateHandle(a.h, 0) }); err != nil {
			return err
		}
	}
	if err := lc.ctlOp("pool.FailureInjector.Kill", func() error { return lc.inj.Kill(1) }); err != nil {
		return err
	}
	return lc.ctlOp("pool.Recover", func() error {
		_, err := lc.p.Recover(1)
		return err
	})
}

// runPhase runs one I/O stream beside one control step and waits for both.
func (lc *lifecycle) runPhase(set *spanSet, reqs []request, control func() error) error {
	var ctlErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctlErr = control()
	}()
	lc.io.tr = set.tracer(&lc.io.buf)
	ioErr := lc.io.run(reqs)
	wg.Wait()
	if ioErr != nil {
		return ioErr
	}
	return ctlErr
}

// round runs one lifecycle round; see lifecycle. The compression ratio it
// reports is the mean over the ten snapshot steps.
func (lc *lifecycle) round(set *spanSet) (roundResult, error) {
	lc.p.ResetTraffic()
	lc.ctl = set.tracer(&lc.ctlBuf)
	var r roundResult
	var ratios float64
	cpu0 := cpuTime()
	start := time.Now()
	cur := [2]int{0, 0} // snapshot each group holds
	err := func() error {
		for _, t := range lifecycleSteps {
			if err := lc.runPhase(set, lc.phase[0][t], func() error { return lc.relocate(1, cur[1], t) }); err != nil {
				return err
			}
			cur[0] = t
			if err := lc.runPhase(set, lc.phase[1][t], func() error { return lc.relocate(0, t, t) }); err != nil {
				return err
			}
			cur[1] = t
			if t == maintainAfter {
				if err := lc.maintain(); err != nil {
					return err
				}
			}
			if err := lc.checkRatio(); err != nil {
				return err
			}
			ratios += lc.ownRatio()
		}
		return lc.runPhase(set, lc.closing, func() error { return lc.relocate(1, cur[1], 0) })
	}()
	r.wall = time.Since(start)
	r.cpu = cpuTime() - cpu0
	lc.collect(&r)
	r.ops += lc.ctlOps
	r.failed += lc.ctlFail
	lc.ctlOps, lc.ctlFail = 0, 0
	if err != nil {
		return r, err
	}
	r.stats = lc.p.Stats()
	r.ratio = ratios / float64(len(lifecycleSteps))
	r.model = modelRound(r.stats, r.payload)
	// The relocations' traffic shares the counters with the I/O, so the
	// split rule is checked on a read-back of everything afterwards.
	return r, lc.verifyAll()
}
