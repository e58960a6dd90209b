package main

import "time"

// The machine this benchmark runs on is a few cores of a shared host, and
// its speed drifts: for seconds to minutes at a time every workload slows
// together by up to 40%, so runs of the same code a few minutes apart differ
// by more than any useful bound. A speedProbe measures that drift inside the
// run. After every op it times a fixed reference kernel, once per
// probeEveryS the op took, so the samples spread evenly over the run. The
// kernel's time on a quiet machine over its time now is the machine's
// speed. The compute-bound workloads multiply each op's time by the speed
// measured around it, which gives the time the op would have taken at the
// reference speed, and derive their end-to-end figures from those times. A
// change to the program moves them; a change in the machine's speed moves
// the kernel as much as the ops and cancels out. The figures as measured
// are printed to stderr, and the traced run reports the mean speed
// (bench.speed).
//
// The kernel runs on one thread and has two halves: a chain of
// multiply-adds in a 256 KiB array, which follows the core's speed, and a
// dependent random walk through a 32 MiB array, which follows the shared
// cache and memory. Timed against the 16,384-task parametric solve and a
// 256-fragment pipeline over 15 s blocks on a 2-core VM, the two halves
// together cut the blocks' spread of time per op from 10–29% to 4–16% in
// two of three 100 s tries (and left it about as it was in the third).
// Either half alone did less, and a kernel on two threads added more noise
// (the second thread's wake-up, and in serve the garbage collector's
// workers) than it removed.

// probeRefS is the kernel's time on a quiet machine (a 2-core x86-64
// VM): a kernel that takes this long means a speed of 1.
const probeRefS = 0.0100

// probeEveryS is the least time between two probes, so that ops of a few
// milliseconds do not spend most of the run probing.
const probeEveryS = 0.25

// probeWindow is how many of the latest samples the speed of a short op
// is the median of (about 4 s); a longer op uses all the samples taken
// after it.
const probeWindow = 16

// The compute half works in 256 KiB and runs computeIters steps (~5 ms);
// the memory half takes walkSteps dependent steps through 32 MiB (~5 ms).
const (
	computeWords = 1 << 15
	computeIters = 1_900_000
	walkWords    = 1 << 23
	walkSteps    = 30_000
)

type speedProbe struct {
	compute []float64
	walk    []uint32
	last    time.Time
	speeds  []float64 // one per sample
	spentS  float64   // time spent probing
	sink    float64
}

func newSpeedProbe() *speedProbe {
	p := &speedProbe{compute: make([]float64, computeWords), walk: make([]uint32, walkWords)}
	for i := range p.walk { // fault every page in before the first sample
		p.walk[i] = uint32(i)
	}
	return p
}

// tick runs the kernel once for every probeEveryS since the last probe
// (none when less than that has passed) and returns the median speed of
// the latest max(probeWindow, runs) samples. Call it right after an op,
// never while one is in flight. A nil probe returns 1.
func (p *speedProbe) tick() float64 {
	if p == nil {
		return 1
	}
	n := 1
	if !p.last.IsZero() {
		n = int(time.Since(p.last).Seconds() / probeEveryS)
	}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		p.sink += computeKernel(p.compute) + walkKernel(p.walk)
		p.last = time.Now()
		d := p.last.Sub(t0).Seconds()
		p.spentS += d
		p.speeds = append(p.speeds, probeRefS/d)
	}
	return quantile(p.speeds[max(0, len(p.speeds)-max(probeWindow, n)):], 0.5)
}

// computeKernel is a dependent chain of multiply-adds reading and writing
// a strided walk through buf.
func computeKernel(buf []float64) float64 {
	mask := len(buf) - 1
	x := 1.0
	for i := 0; i < computeIters; i++ {
		j := (i * 7919) & mask
		buf[j] = 0.5*buf[j] + x
		x = x*1.0000001 + 1e-9*buf[(j+4099)&mask]
	}
	return x
}

// walkKernel is a dependent random walk through buf: each step's address
// depends on the word the last step read, so every step waits on memory.
func walkKernel(buf []uint32) float64 {
	mask := uint32(len(buf) - 1)
	j := uint32(1)
	for i := 0; i < walkSteps; i++ {
		j = (buf[j] + j*2654435761 + 12345) & mask
		buf[j]++
	}
	return float64(j)
}
