package main

import (
	"fmt"
	"time"

	"buddy/internal/analysis"
	"buddy/internal/gen"
	"buddy/internal/memory"
	"buddy/internal/pool"
)

// serveBenchmarks is the serve experiment's mixed DL+HPC population: four
// DL and four HPC working sets of distinct compressibility.
var serveBenchmarks = []string{
	"VGG16", "351.palm", "ResNet50", "360.ilbdc",
	"BigLSTM", "355.seismic", "Inception_V2", "352.ep",
}

// chunkedActivations are the DL Tab. 1 benchmarks whose activation regions
// serve-chunked streams, two per client. SqueezeNet's (40% zero entries)
// and AlexNet's (45%) are left out: half their dense entries take three
// sectors, which puts their share of overflowing entries at 2x within a
// few entries of the 30% Buddy Threshold, so their target, and with it
// compression_ratio, would change from seed to seed.
var chunkedActivations = []string{"BigLSTM", "Inception_V2", "VGG16", "ResNet50"}

// sparseFP16 is the post-ReLU fp16 activation map serve-chunked streams
// beside the Tab. 1 activation regions: 80% of entries are entirely zero
// (dead channels) and the rest are 90% element-sparse, so most entries
// take the codec's all-zero fast path.
var sparseFP16 = gen.Blend{A: gen.Zeros{}, B: gen.SparseFP16{ZeroFrac: 0.9}, PA: 0.8}

// Chunked tenants: two batch tenants weighted 3:1 in class 0 and one
// latency tenant in class 2. Index 0 is the pool's default tenant.
var chunkedTenants = map[string]pool.TenantConfig{
	"batch-a": {Weight: 3, Priority: 0},
	"batch-b": {Weight: 1, Priority: 0},
	"latency": {Weight: 1, Priority: 2},
}

// serveRound runs one round of a serve workload: every client's stream
// concurrently, then the split-rule and ratio checks on the quiescent pool.
func (in *instance) serveRound(set *spanSet) (roundResult, error) {
	in.p.ResetTraffic()
	var r roundResult
	cpu0 := cpuTime()
	start := time.Now()
	err := in.runClients(set, in.streams)
	r.wall = time.Since(start)
	r.cpu = cpuTime() - cpu0
	in.collect(&r)
	if err != nil {
		return r, err
	}
	r.stats = in.p.Stats()
	if err := checkTraffic(r.exp, r.stats.Traffic); err != nil {
		return r, err
	}
	if err := in.checkRatio(); err != nil {
		return r, err
	}
	r.ratio = in.p.CompressionRatio()
	r.model = modelRound(r.stats, r.payload)
	return r, nil
}

// setupServeBulk builds serve-bulk: the eight serve benchmarks, each
// profiled with the final design and loaded into a 4-shard pool. Client c
// owns benchmarks c, c+2, ...; each keeps one 64 KiB request outstanding
// and makes four passes per round over its working set, reading each
// request's range three times and writing it back once.
func setupServeBulk(size sizes, seed uint64) (*instance, error) {
	in := &instance{tenants: []string{pool.DefaultTenant}, window: 1, maxReq: size.bulkReq, windowSamples: 2500}
	raw := 0
	owner := map[*alloc]int{}
	for i, name := range serveBenchmarks {
		b := benchmark(name)
		snap := &memory.Snapshot{}
		var group []*alloc
		for _, r := range b.Regions {
			data := in.setup.region(b, r, 0, regionSize(size.bulkPerBench, r.Frac), seed)
			a := &alloc{name: fmt.Sprintf("c%d/%s/%s", i%2, b.Name, r.Name), vers: [][]byte{data}}
			snap.Allocations = append(snap.Allocations, &memory.Allocation{Name: a.name, Data: data})
			group = append(group, a)
			owner[a] = i % 2
			raw += len(data)
		}
		targets := in.setup.profile([]*analysis.Index{in.setup.index(snap)})
		for _, a := range group {
			a.target = targets[a.name]
		}
		in.allocs = append(in.allocs, group...)
	}
	var err error
	if in.p, in.inj, err = newPool(4, raw, nil); err != nil {
		return nil, err
	}
	if err := in.load(); err != nil {
		in.close()
		return nil, err
	}
	in.streams = make([][]request, 2)
	for c := range in.streams {
		var pass []request
		for _, a := range in.allocs {
			if owner[a] == c {
				pass = append(pass, chunks(a, size.bulkReq)...)
			}
		}
		for p := 0; p < 4; p++ {
			for k, r := range pass {
				r.write = (k+p)%4 == 3 // writes put back the stored bytes (version 0)
				in.streams[c] = append(in.streams[c], r)
			}
		}
	}
	return in, nil
}

// setupServeChunked builds serve-chunked: per client, one sparse fp16 map
// and two DL activation regions, each in two versions, profiled over both
// and owned by the three tenants of a 2-shard pool. Each client keeps
// 16 requests of 4 KiB outstanding, walking its regions in bursts of 8
// adjacent chunks; per round it makes four passes with three writes per
// read.
func setupServeChunked(size sizes, seed uint64) (*instance, error) {
	in := &instance{
		tenants: []string{pool.DefaultTenant, "batch-a", "batch-b", "latency"},
		window:  16, maxReq: 4 << 10, windowSamples: 25_000,
	}
	raw := 0
	perClient := make([][]*alloc, 2)
	for c := range perClient {
		type src struct {
			name string
			g    func(v int) []byte
		}
		srcs := []src{{fmt.Sprintf("c%d/sparse_fp16", c), func(v int) []byte {
			return in.setup.generate(sparseFP16, size.sparseBytes, regionSeed(seed, "sparse_fp16", fmt.Sprint(c), v))
		}}}
		for i := c; i < len(chunkedActivations); i += 2 {
			b := benchmark(chunkedActivations[i])
			for _, r := range b.Regions {
				if r.Name == "activations" {
					srcs = append(srcs, src{fmt.Sprintf("c%d/%s/activations", c, b.Name), func(v int) []byte {
						return in.setup.region(b, r, v, size.actBytes, seed)
					}})
				}
			}
		}
		// Tenant of each region, in order: batch-a owns the sparse map,
		// batch-b and the latency tenant one activation region each.
		owners := []int{1, 2, 3}
		snaps := []*memory.Snapshot{{Index: 0}, {Index: 1}}
		for i, s := range srcs {
			a := &alloc{name: s.name, tenant: owners[i], vers: [][]byte{s.g(0), s.g(1)}}
			for v := range snaps {
				snaps[v].Allocations = append(snaps[v].Allocations, &memory.Allocation{Name: a.name, Data: a.vers[v]})
			}
			perClient[c] = append(perClient[c], a)
			raw += len(a.vers[0])
		}
		targets := in.setup.profile([]*analysis.Index{in.setup.index(snaps[0]), in.setup.index(snaps[1])})
		for _, a := range perClient[c] {
			a.target = targets[a.name]
		}
		in.allocs = append(in.allocs, perClient[c]...)
	}
	var err error
	if in.p, in.inj, err = newPool(2, raw, chunkedTenants); err != nil {
		return nil, err
	}
	if err := in.load(); err != nil {
		in.close()
		return nil, err
	}
	in.streams = make([][]request, 2)
	for c, as := range perClient {
		pass := burstOrder(as, 4<<10, 8)
		for p := 0; p < 4; p++ {
			for k, r := range pass {
				// Position q of chunk k in pass p: q = 3 reads, the others
				// write version q%2. Every read then sees version 0 (the
				// write of the pass before, or the load), so each round
				// repeats the same operations on the same contents.
				q := (k + p) % 4
				r.write = q != 3
				r.ver = q % 2
				in.streams[c] = append(in.streams[c], r)
			}
		}
	}
	return in, nil
}

// burstOrder interleaves the allocations' chunks in bursts of burst
// adjacent chunks, rotating across the allocations.
func burstOrder(as []*alloc, size, burst int) []request {
	lists := make([][]request, len(as))
	for i, a := range as {
		lists[i] = chunks(a, size)
	}
	var out []request
	for left := true; left; {
		left = false
		for i := range lists {
			n := min(burst, len(lists[i]))
			out = append(out, lists[i][:n]...)
			lists[i] = lists[i][n:]
			left = left || len(lists[i]) > 0
		}
	}
	return out
}
