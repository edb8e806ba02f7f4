package pool

import (
	"sync"
	"sync/atomic"

	"buddy/internal/core"
	"buddy/internal/dram"
	"buddy/internal/nvlink"
)

// Per-shard tenant-aware scheduler, replacing the FIFO submission
// channel: each shard keeps one fixed-capacity task ring per tenant and
// dequeues with strict priority across classes (an escape valve prevents
// starvation) and deficit round-robin across the tenants within a class
// (long-run served bytes proportional to configured weights). A dequeue
// hands the worker a window drawn from a single tenant's ring, so the
// worker's run-coalescing never merges tasks across tenants — and within
// one tenant it behaves exactly like the old FIFO window.
//
// The scheduler also owns the shard's modeled virtual clock: each
// completed run advances it by the run's service cycles (device and link
// portions split by the allocation's target ratio), and a task's modeled
// latency is the clock distance from submit to completion — queueing
// included. Everything on the enqueue/dequeue path is allocation-free:
// rings are preallocated, the DRR state is plain integers, and blocking
// (full ring, empty shard) parks on sync.Cond.

const (
	// numClasses is the number of strict priority classes; TenantConfig
	// priorities clamp into [0, numClasses).
	numClasses = 4

	// escapeEvery is the anti-starvation valve: after this many
	// consecutive dequeues served from a higher class while lower-class
	// work was waiting, one dequeue is granted to a starved lower class
	// (rotating among them), bounding any tenant's wait to
	// escapeEvery runs.
	escapeEvery = 16

	// drrQuantum is the byte credit a weight-1 tenant's ring earns per
	// scheduler visit; a tenant's per-visit credit is drrQuantum x weight.
	// Large enough that a weight-1 tenant still dispatches a coalescible
	// multi-task window per turn.
	drrQuantum = 32 << 10

	// taskCostFloor is added to every task's byte cost so zero- and
	// tiny-payload tasks still drain deficit (count-fairness floor of one
	// entry per task).
	taskCostFloor = core.EntryBytes
)

// Modeled cycle costs per payload byte, from the paper's Tab. 2 memory
// system and NVLink2 link: the device portion of an entry moves at HBM2
// bandwidth, the overflow portion at link bandwidth, both against the
// core clock.
var (
	devCyclesPerByte = func() float64 {
		c := dram.DefaultConfig()
		return c.CoreClockGHz / c.BandwidthGBs
	}()
	linkCyclesPerByte = func() float64 {
		c := nvlink.DefaultConfig()
		return c.CoreClockGHz / c.BandwidthGBs
	}()
)

// taskRing is one tenant's fixed-capacity FIFO on one shard.
type taskRing struct {
	buf     []*task
	head, n int
	deficit int64 // DRR byte credit
}

//buddy:hotpath
func (r *taskRing) push(t *task) {
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = t
	r.n++
}

//buddy:hotpath
func (r *taskRing) peek() *task { return r.buf[r.head] }

//buddy:hotpath
func (r *taskRing) pop() *task {
	t := r.buf[r.head]
	r.buf[r.head] = nil
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return t
}

// sched is one shard's scheduler.
type sched struct {
	mu    sync.Mutex
	more  sync.Cond // workers wait here for queued work
	space sync.Cond // submitters wait here for ring space
	shut  bool

	tens    []*tenant // pool's tenants, by index
	rings   []taskRing
	total   int               // queued tasks across all rings
	count   [numClasses]int   // queued tasks per class
	classes [numClasses][]int // tenant indexes per class
	cursor  [numClasses]int   // DRR rotation point per class
	hiRuns  int               // consecutive higher-class dequeues over waiting lower-class work
	valve   int               // rotates escape-valve grants among starved classes

	// clock is the shard's modeled virtual time in device+link cycles;
	// see advance.
	clock atomic.Uint64
}

func newSched(tens []*tenant, depth int) *sched {
	s := &sched{tens: tens, rings: make([]taskRing, len(tens))}
	s.more.L = &s.mu
	s.space.L = &s.mu
	for i := range s.rings {
		s.rings[i].buf = make([]*task, depth)
	}
	for i, t := range tens {
		s.classes[t.cls] = append(s.classes[t.cls], i)
	}
	return s
}

// shutdown wakes every parked submitter (their enqueues fail with
// ErrClosed) and lets workers drain the remaining backlog and exit.
func (s *sched) shutdown() {
	s.mu.Lock()
	s.shut = true
	s.space.Broadcast()
	s.more.Broadcast()
	s.mu.Unlock()
}

// enqueue appends a task to its tenant's ring, blocking while the ring is
// at capacity. Per-tenant backpressure is the point: one tenant's backlog
// fills its own ring and parks its own submitters without taking queue
// space from anyone else.
//
//buddy:hotpath
func (s *sched) enqueue(t *task, tn *tenant) error {
	s.mu.Lock()
	r := &s.rings[tn.idx]
	for r.n == len(r.buf) && !s.shut {
		s.space.Wait()
	}
	if s.shut {
		s.mu.Unlock()
		return ErrClosed
	}
	r.push(t)
	s.total++
	s.count[tn.cls]++
	s.more.Signal()
	s.mu.Unlock()
	tn.queued.Add(1)
	return nil
}

// dequeue fills run with the next window of tasks — all from one tenant,
// in that tenant's FIFO order — and returns how many, blocking while the
// shard is idle. Returns 0 only when the scheduler has shut down and the
// backlog is drained.
//
//buddy:hotpath
func (s *sched) dequeue(run *[maxRunTasks]*task) int {
	s.mu.Lock()
	for s.total == 0 {
		if s.shut {
			s.mu.Unlock()
			return 0
		}
		s.more.Wait()
	}
	// Strict priority: serve the highest non-empty class — unless
	// lower-class work has now waited escapeEvery consecutive
	// higher-class dequeues, in which case one starved class (rotating
	// among them) gets this turn.
	hi := numClasses - 1
	for s.count[hi] == 0 {
		hi--
	}
	c := hi
	var below [numClasses]int
	nb := 0
	for k := hi - 1; k >= 0; k-- {
		if s.count[k] > 0 {
			below[nb] = k
			nb++
		}
	}
	if nb > 0 {
		s.hiRuns++
		if s.hiRuns >= escapeEvery {
			s.hiRuns = 0
			c = below[s.valve%nb]
			s.valve++
		}
	} else {
		s.hiRuns = 0
	}
	n := s.drr(c, run)
	s.space.Broadcast()
	s.mu.Unlock()
	return n
}

// drr serves one window from class c (which must have queued work) by
// deficit round-robin: scan the class's tenants from the rotation cursor,
// topping each non-empty ring's byte credit up by quantum x weight per
// visit, and serve the first ring whose credit covers its head task.
// Repeated scans make every deficit grow, so a non-empty class always
// serves. A ring holding the shard's only queued work bypasses the
// deficit entirely — with no competitor, throttling a lone tenant to its
// quantum would only shrink the coalescing window.
//
//buddy:hotpath
func (s *sched) drr(c int, run *[maxRunTasks]*task) int {
	ten := s.classes[c]
	for {
		for k := 0; k < len(ten); k++ {
			pos := s.cursor[c] + k
			if pos >= len(ten) {
				pos -= len(ten)
			}
			i := ten[pos]
			r := &s.rings[i]
			if r.n == 0 {
				continue
			}
			tn := s.tens[i]
			r.deficit += drrQuantum * tn.weight
			lone := r.n == s.total
			if !lone && r.deficit < taskCost(r.peek()) {
				continue
			}
			n, bytes := 0, 0
			for r.n > 0 && n < maxRunTasks {
				t := r.peek()
				if n > 0 && bytes+len(t.buf) > maxRunBytes {
					break
				}
				cost := taskCost(t)
				if !lone && r.deficit < cost {
					break
				}
				r.pop()
				r.deficit -= cost
				run[n] = t
				n++
				bytes += len(t.buf)
			}
			if r.n == 0 || (lone && r.deficit < 0) {
				// An emptied ring does not hoard credit, and the lone-queue
				// bypass does not bank debt against a competitor that shows
				// up later.
				r.deficit = 0
			}
			s.total -= n
			s.count[c] -= n
			s.cursor[c] = pos + 1
			if s.cursor[c] >= len(ten) {
				s.cursor[c] = 0
			}
			tn.queued.Add(int64(-n))
			return n
		}
	}
}

// taskCost is a task's DRR byte cost: payload plus a one-entry floor.
//
//buddy:hotpath
func taskCost(t *task) int64 { return int64(len(t.buf)) + taskCostFloor }

// advance moves the shard's modeled clock by the service cycles of n
// payload bytes moved through handle h — the device-resident fraction of
// each entry at HBM2 bandwidth plus the overflow fraction at link
// bandwidth, per the allocation's target ratio — and returns the new
// clock reading. Completion latency is the distance from the submitting
// clock stamp to this reading, so queueing behind other tenants' runs is
// part of the modeled latency.
//
//buddy:hotpath
func (s *sched) advance(h *Handle, n int) uint64 {
	devFrac := float64(h.Alloc().Target().DeviceBytes()) / float64(core.EntryBytes)
	cycles := float64(n) * (devFrac*devCyclesPerByte + (1-devFrac)*linkCyclesPerByte)
	c := uint64(cycles)
	if c == 0 {
		c = 1
	}
	return s.clock.Add(c)
}
