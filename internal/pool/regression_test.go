package pool

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"buddy/internal/core"
)

// retainingPlacement keeps every loads slice it is ever shown — the
// adversarial policy behind the scratch-aliasing regression. A pool that
// hands its internal scratch to Pick would see these retained snapshots
// mutate under later Mallocs.
type retainingPlacement struct {
	seen [][]ShardLoad
}

func (r *retainingPlacement) Name() string { return "retaining" }

func (r *retainingPlacement) Pick(loads []ShardLoad, size int64) int {
	r.seen = append(r.seen, loads)
	return 0
}

// TestPlacementLoadsNotAliased is the loads()-aliasing regression: the
// slice passed to Placement.Pick must be the policy's to keep. Before the
// fix the pool reused one scratch slice across calls, so a policy that
// retained it (for history-aware placement) watched its past observations
// silently rewrite themselves.
func TestPlacementLoadsNotAliased(t *testing.T) {
	place := &retainingPlacement{}
	p := newTestPool(t, 2, place)
	if _, err := p.Malloc("a", 8<<10, core.Target1x); err != nil {
		t.Fatal(err)
	}
	first := append([]ShardLoad(nil), place.seen[0]...)
	// Grow shard 0 so a reused scratch would be overwritten with the new
	// occupancy on the next call.
	if _, err := p.Malloc("b", 16<<10, core.Target1x); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Malloc("c", 1<<10, core.Target1x); err != nil {
		t.Fatal(err)
	}
	for i, l := range place.seen[0] {
		if l != first[i] {
			t.Fatalf("retained loads snapshot mutated: shard %d was %+v, now %+v",
				i, first[i], l)
		}
	}
}

// TestMallocSpillErrorListsHeadroom is the error-context satellite: when an
// allocation fits no shard, the error must name every shard's free device
// bytes — not just the first OOM — and still satisfy errors.Is
// ErrOutOfMemory.
func TestMallocSpillErrorListsHeadroom(t *testing.T) {
	p := newTestPool(t, 2, nil)
	// Occupy shard 1 so the two shards report different headroom.
	if _, err := p.Malloc("pad", 16<<10, core.Target1x); err != nil {
		t.Fatal(err)
	}
	_, err := p.Malloc("huge", 1<<20, core.Target1x)
	if err == nil {
		t.Fatal("oversized Malloc succeeded")
	}
	if !errors.Is(err, core.ErrOutOfMemory) {
		t.Fatalf("spill error is not ErrOutOfMemory: %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "free device bytes per shard") {
		t.Errorf("spill error lacks the headroom listing: %q", msg)
	}
	for _, want := range []string{"0:", "1:"} {
		if !strings.Contains(msg, want) {
			t.Errorf("spill error does not mention shard %q headroom: %q", want, msg)
		}
	}
	// Every shard's own failure reason must survive the wrap.
	if !strings.Contains(msg, "shard 0:") || !strings.Contains(msg, "shard 1:") {
		t.Errorf("spill error dropped a shard's cause: %q", msg)
	}
}

// TestApplyReprofileRacesMigrate is the reprofile/migrate race regression:
// a reprofile and a cross-shard MigrateHandle on the same handle must
// serialize. Before the fix the reprofile retargeted the source allocation
// while the mover copied it into a destination reserved at the old target,
// so the decision was reported Applied yet the handle ended at the old
// target after cutover.
func TestApplyReprofileRacesMigrate(t *testing.T) {
	p := newTestPool(t, 2, RoundRobin())
	data := make([]byte, 8<<10)
	pattern(data, 7)
	size := int64(len(data))
	dec := core.ReprofileDecision{Name: "race", Old: core.Target1x, New: core.Target2x}
	plan := &core.ReprofilePlan{Decisions: []core.ReprofileDecision{dec}}
	def, err := p.Tenant(DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 200; iter++ {
		h, err := p.Malloc("race", size, dec.Old)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		var (
			wg            sync.WaitGroup
			st            core.MigrationStats
			stErr, migErr error
			start         = make(chan struct{})
			dst           = 1 - h.Shard()
		)
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			st, stErr = p.ApplyReprofile(plan)
		}()
		go func() {
			defer wg.Done()
			<-start
			migErr = p.MigrateHandle(h, dst)
		}()
		close(start)
		wg.Wait()
		if stErr != nil || migErr != nil {
			t.Fatalf("iter %d: reprofile err %v, migrate err %v", iter, stErr, migErr)
		}
		switch {
		case st.Applied == 1 && st.Skipped == 0:
			if got := h.Target(); got != dec.New {
				t.Fatalf("iter %d: reprofile reported Applied but the handle is at %s, want %s", iter, got, dec.New)
			}
		case st.Skipped == 1 && st.Applied == 0:
			if got := h.Target(); got != dec.Old {
				t.Fatalf("iter %d: reprofile reported Skipped but the handle is at %s, want %s", iter, got, dec.Old)
			}
		default:
			t.Fatalf("iter %d: stats %+v, want exactly one decision applied or skipped", iter, st)
		}
		got := make([]byte, len(data))
		if _, err := h.ReadAt(got, 0); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("iter %d: read back err=%v match=%v", iter, err, bytes.Equal(got, data))
		}
		if stored, want := def.Stats().StoredBytes, quotaFor(size, h.Target()); stored != want {
			t.Fatalf("iter %d: tenant charged %d stored bytes, want %d for %s", iter, stored, want, h.Target())
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
