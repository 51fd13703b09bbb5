package main

import (
	"syscall"
	"time"
	"unsafe"
)

// A CPU-bound workload's timings are not read from the wall clock. On a
// few cores of a shared host the same code takes a quarter to twice as
// long for seconds or minutes at a time, for two reasons, and each has
// its own remedy here.
//
// The hypervisor takes the core away (steal in /proc/stat). The thread's
// CPU time does not advance while it is not running, so the timings are
// read from threadCPU, on a goroutine locked to its thread.
//
// A neighbour takes cache, memory bandwidth or clock rate, and a CPU
// second buys less. The reference kernel below is a fixed piece of work
// that belongs to the benchmark, not to the program: the hold model of a
// discrete-event simulator (pop the earliest item of a heap, touch two
// entries of a state table, push a successor), half of its time on
// structures that fit the core's own caches and half on structures that
// do not. Its speed is measured right before and right after every timed
// iteration and scales the iteration's timings. What slows the kernel
// slows the workload alike, and the quotient stays; a change to the
// program moves only the workload.
//
// README.md, "Machine speed", has the measurements this rests on.

// threadCPUTime reads CLOCK_THREAD_CPUTIME_ID: the CPU time the calling
// thread has used so far, to the nanosecond (getrusage answers in
// scheduler ticks, too coarse for a request of a few milliseconds).
func threadCPUTime() (time.Duration, error) {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, errno
	}
	return time.Duration(ts.Nano()), nil
}

// threadCPU is threadCPUTime as a clock. The caller has locked its
// goroutine to the thread.
func threadCPU() time.Duration {
	d, _ := threadCPUTime() // iterate has checked that this platform answers the call
	return d
}

const (
	// refHolds is the number of hold operations one unit of reference work
	// does on the large structures; it does twice as many on the small
	// ones, which take about as long.
	refHolds = 2048
	// refNominal is the reference speed, in units per second, at which a
	// scaled timing equals the raw one: what the two-core box this was
	// built on reaches when its neighbours are quiet. It only fixes the
	// scale of the reported numbers.
	refNominal = 1500.0
)

type refItem struct {
	at   uint64
	host uint32
	_    uint32
}

// refHeap is an event heap with the state table its events touch.
type refHeap struct {
	items []refItem
	table []uint64
	rng   uint64
}

func newRefHeap(seed uint64, items, words int) *refHeap {
	h := &refHeap{items: make([]refItem, 0, items), table: make([]uint64, words), rng: seed | 1}
	for i := 0; i < items; i++ {
		h.push(refItem{at: h.next() >> 40, host: uint32(h.next() >> 32)})
	}
	return h
}

// next is a 64-bit xorshift generator.
func (h *refHeap) next() uint64 {
	x := h.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	h.rng = x
	return x
}

func (h *refHeap) push(it refItem) {
	s := append(h.items, it)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].at <= s[i].at {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
	h.items = s
}

func (h *refHeap) pop() refItem {
	s := h.items
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1].at < s[c].at {
			c++
		}
		if s[i].at <= s[c].at {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	h.items = s
	return top
}

// hold does n hold operations. It allocates nothing: every push refills
// the slot a pop freed. The table's length is a power of two.
func (h *refHeap) hold(n int) {
	mask := uint32(len(h.table) - 1)
	for i := 0; i < n; i++ {
		it := h.pop()
		r := h.next()
		peer := uint32(r >> 32)
		h.table[it.host&mask] += it.at
		h.table[peer&mask] ^= h.table[it.host&mask]
		h.push(refItem{at: it.at + 1 + r&0xfffff, host: peer})
	}
}

// reference is the kernel's state: an event heap and state table of 512
// KiB and 4 MiB, and one of 8 KiB and 64 KiB.
type reference struct {
	large, small *refHeap
	// window is how long one measurement of the speed runs.
	window time.Duration
}

func newReference(window time.Duration) *reference {
	return &reference{
		large:  newRefHeap(0x9e3779b97f4a7c15, 1<<15, 1<<19),
		small:  newRefHeap(0xbf58476d1ce4e5b9, 1<<9, 1<<13),
		window: window,
	}
}

// speed runs the kernel for the window and returns its units of work per
// second of the calling thread's CPU time, over refNominal.
func (r *reference) speed() float64 {
	start := time.Now()
	cpu := threadCPU()
	units := 0
	for units == 0 || time.Since(start) < r.window {
		r.large.hold(refHolds)
		r.small.hold(2 * refHolds)
		units++
	}
	return float64(units) / (threadCPU() - cpu).Seconds() / refNominal
}
