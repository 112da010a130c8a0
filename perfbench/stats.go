package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func secs(d time.Duration) float64 { return d.Seconds() }

// peakRSSMB is the process's peak resident set in MiB (getrusage reports
// it in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// heapSampler tracks the peak live heap — the bytes the last collection
// marked live — read every 10 ms. Unlike the peak resident set it does not
// depend on how far the heap overshot between collections, which varied
// by half from run to run.
type heapSampler struct {
	stop chan struct{}
	once sync.Once
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.peak = max(h.peak, sample[0].Value.Uint64())
			select {
			case <-tick.C:
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

// close stops the sampler and waits for it; it may be called repeatedly.
func (h *heapSampler) close() {
	h.once.Do(func() { close(h.stop) })
	<-h.done
}

// peakMB stops the sampler and returns the peak in MiB.
func (h *heapSampler) peakMB() float64 {
	h.close()
	return float64(h.peak) / (1 << 20)
}

// CPU clocks of clock_gettime(2). CPU time is what the gated metrics
// measure: on a shared virtual machine the hypervisor can take a third or
// more of the CPU away for minutes at a time, which moved wall-clock pass
// times by half from run to run while the CPU time of the same passes
// moved by a few percent.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID: every thread of the process
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling thread
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error()) // the clock ids are constants Linux always has
	}
	return time.Duration(ts.Nano())
}

func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

// timed returns the wall and the process CPU time fn takes.
func timed(fn func()) (wall, cpu time.Duration) {
	t0, c0 := time.Now(), processCPU()
	fn()
	return time.Since(t0), processCPU() - c0
}

// onThreadCPU runs fn with the calling goroutine locked to its thread and
// returns the thread's CPU time spent in fn: the operation's own work
// (with the garbage collection it assisted), not other goroutines'.
func onThreadCPU(fn func()) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := cpuClock(clockThreadCPU)
	fn()
	return cpuClock(clockThreadCPU) - t0
}

// allocatedBytes is the heap allocated since the process started.
func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
