package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"buddy/internal/analysis"
	"buddy/internal/compress"
	"buddy/internal/core"
	"buddy/internal/gen"
	"buddy/internal/memory"
	"buddy/internal/pool"
	"buddy/internal/workloads"
)

const entryBytes = core.EntryBytes

// setupTimings records where one set-up's time went, for the per-layer
// metrics of the generation, indexing and profiling layers.
type setupTimings struct {
	genNs, genBytes        int64
	indexNs, indexEntries  int64
	profileNs, profEntries int64
}

// regionSeed derives a region's generator seed from the run seed, the
// benchmark and region names and, for regions whose contents change over a
// run, the snapshot or version number.
func regionSeed(seed uint64, bench, region string, t int) uint64 {
	h := uint64(14695981039346656037) // FNV-1a
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seed)
	for _, part := range [][]byte{b[:], []byte(bench), {'/'}, []byte(region)} {
		for _, c := range part {
			h ^= uint64(c)
			h *= 1099511628211
		}
	}
	return h + uint64(t)*0x9E3779B97F4A7C15
}

// regionSize scales a region's share of a benchmark's working set to whole
// 4 KiB pieces, so every request is entry-aligned.
func regionSize(total int, frac float64) int {
	const piece = 4 << 10
	n := (int(float64(total)*frac) + piece - 1) / piece * piece
	return max(n, piece)
}

// generate fills a region of size bytes from generator g, seeded from the
// run seed, and accounts the time to the generation layer.
func (st *setupTimings) generate(g gen.Generator, size int, seed uint64) []byte {
	start := time.Now()
	data := make([]byte, size)
	g.Fill(data, gen.NewRNG(seed, 7))
	st.genNs += time.Since(start).Nanoseconds()
	st.genBytes += int64(size)
	return data
}

// region generates snapshot t of one Tab. 1 region. Static regions hold
// the same bytes at every t, as in workloads.GenerateSnapshot.
func (st *setupTimings) region(b workloads.Benchmark, r workloads.Region, t, size int, seed uint64) []byte {
	vt := 0
	if r.Dynamic {
		vt = t
	}
	return st.generate(r.Gen(t), size, regionSeed(seed, b.Name, r.Name, vt))
}

// index builds the sector-class index of one snapshot (the analysis layer).
func (st *setupTimings) index(s *memory.Snapshot) *analysis.Index {
	start := time.Now()
	x := analysis.Build(s, compress.NewBPC())
	st.indexNs += time.Since(start).Nanoseconds()
	st.indexEntries += int64(x.Entries())
	return x
}

// profile runs the paper's profiling pass with the final-design options.
func (st *setupTimings) profile(idx []*analysis.Index) map[string]core.TargetRatio {
	start := time.Now()
	res := core.ProfileIndexes(idx, core.FinalDesign())
	st.profileNs += time.Since(start).Nanoseconds()
	for _, x := range idx {
		st.profEntries += int64(x.Entries())
	}
	return res.Targets()
}

// benchmark looks up a Tab. 1 benchmark.
func benchmark(name string) workloads.Benchmark {
	b, err := workloads.ByName(name)
	if err != nil {
		panic(err) // the names below are constants of this file's callers
	}
	return b
}

// newPool builds a pool of shards BPC devices for a working set of raw
// bytes, with a failure injector attached so the lifecycle steps and the
// relocation probe can kill and recover a shard. Each device holds twice
// the working set, so a drain onto one shard, a reprofile to 1x and a live
// migration's two reservations always fit.
func newPool(shards, raw int, tenants map[string]pool.TenantConfig) (*pool.Pool, *pool.FailureInjector, error) {
	devs := make([]*core.Device, shards)
	for i := range devs {
		devs[i] = core.NewDevice(core.Config{Codec: compress.NewBPC(), DeviceBytes: 2 * int64(raw)})
	}
	inj := pool.NewFailureInjector()
	p, err := pool.New(devs, pool.Config{Injector: inj, Tenants: tenants})
	if err != nil {
		return nil, nil, fmt.Errorf("build pool: %w", err)
	}
	return p, inj, nil
}
