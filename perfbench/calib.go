package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference kernel: a fixed piece of work, frozen in the benchmark
// and independent of the program, that measures how fast the shared
// host runs this process at the moment. On the development VM the
// program's operations and the kernel slow down and speed up together,
// by 20% and more within minutes; the end-to-end times are reported at
// the reference speed (refNominalMs), which takes that swing out of
// them. The kernel is a sort and floating-point math over a few hundred
// KiB: a version that also chased pointers through 16 MiB tracked the
// workloads worse, as the host's swings showed in compute speed, not in
// memory latency. It allocates nothing, so the program's heap and
// collector do not reach it, and it is short (about 3 ms), so the Go
// scheduler does not preempt it. See NOTES.md, "Reference speed".

// refNominalMs is the kernel's CPU time at the reference speed: about
// its median on the 2-vCPU development VM. It only sets the scale of the
// reported times; it is fixed and never retuned.
const refNominalMs = 3.0

// refEvery is how often the kernel runs while a workload is measured:
// once per 100 ms, about 3% of one processor. The open loop runs it on a
// ticker; a closed loop after each operation, once per refEvery the
// operation took.
const refEvery = 100 * time.Millisecond

// setupTicks is how many kernel runs follow each of the seven set-ups of
// the casjobs and fedsweep workloads, so their set-up time is scaled by
// the mean of 35 runs.
const setupTicks = 5

var (
	refOnce sync.Once
	refMu   sync.Mutex
	refSrc  []float64
	refBuf  []float64
	refSink float64
)

func initRef() {
	refOnce.Do(func() {
		rng := rand.New(rand.NewSource(1))
		refSrc = make([]float64, 1<<14)
		for i := range refSrc {
			refSrc[i] = rng.Float64()
		}
		refBuf = make([]float64, len(refSrc))
	})
}

// refKernel runs the kernel once and returns its thread CPU time and
// its wall time in ms.
func refKernel() (cpu, wall float64) {
	initRef()
	refMu.Lock()
	defer refMu.Unlock()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start, wallStart := threadCPU(), time.Now()
	copy(refBuf, refSrc)
	sort.Float64s(refBuf)
	s := 0.0
	for i := 0; i < 40000; i++ {
		x := refSrc[i&(len(refSrc)-1)]
		s += math.Exp(-x) * math.Log1p(x)
	}
	refSink += s
	return float64(threadCPU()-start) / 1e6, float64(time.Since(wallStart)) / 1e6
}

// refClock collects reference kernel runs. It is safe for concurrent use.
type refClock struct {
	mu        sync.Mutex
	cpu, wall []float64 // ms per run
}

// tick runs the kernel n times and records each run.
func (c *refClock) tick(n int) {
	for i := 0; i < n; i++ {
		k, w := refKernel()
		c.mu.Lock()
		c.cpu = append(c.cpu, k)
		c.wall = append(c.wall, w)
		c.mu.Unlock()
	}
}

// wallScale scales a wall-clock time measured alongside the kernel runs
// to the reference speed: refNominalMs over the kernel's mean wall time.
// The mean, not the median, because the host takes the processor away
// in slices of milliseconds: most kernel runs miss them, while an
// operation's wall time collects them over its whole span.
func (c *refClock) wallScale() float64 {
	if len(c.wall) == 0 {
		return 1
	}
	t := 0.0
	for _, w := range c.wall {
		t += w
	}
	return refNominalMs / (t / float64(len(c.wall)))
}

// cpuScale scales a CPU time measured alongside the kernel runs to the
// reference speed: refNominalMs over the kernel's median CPU time.
func (c *refClock) cpuScale() float64 {
	if k := median(c.cpu); k > 0 {
		return refNominalMs / k
	}
	return 1
}

// threadCPU is the calling OS thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
