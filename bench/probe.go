package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The box this benchmark runs on is shared: neighbours slow its cores by
// up to half, and the SUT's times move with them. The slowdown flips on
// and off many times a second, and the share of time it is on drifts over
// minutes. Each run therefore also times a fixed speed probe, many times
// over, and reports its times scaled to a box on which the probe takes
// probeNominalMS; the raw times are reported beside the scaled ones. A
// metric scales by the mean probe time over the phase it was measured in:
// the probe times gather at a fast and a slow value, so their median
// jumps from one to the other, while their mean weighs each speed by the
// time the box spent at it, as the SUT's times do.
//
// The probe runs while the SUT idles where it can: before each SUT start
// and between pull sweeps. An open loop never lets the SUT idle, so
// ingest runs probe beside it every 100 ms.
//
// The probe does what the SUT mostly does — scan goroutine-dump text
// line by line and count blocked locations in a map — with its own
// parser, so no change to this repository's code can move it. It is
// timed in the CPU time of its own thread, which a busy SUT beside it
// does not inflate the way it would inflate wall time.

// probeNominalMS is the probe time the scaled metrics assume: roughly
// the probe's mean time on the 2-core box the benchmark was sized on.
const probeNominalMS = 5.0

// probeDump is the probe's fixed input, about 1 MB of dump text.
var probeDump = func() []byte {
	var b bytes.Buffer
	states := []string{"chan receive", "select", "IO wait", "chan send, 5 minutes", "semacquire"}
	for i := 0; i < 4000; i++ {
		m := i % 37
		fmt.Fprintf(&b, "goroutine %d [%s]:\nruntime.gopark(0x0?, 0x0?)\n\t/usr/local/go/src/runtime/proc.go:425 +0xce\n"+
			"svc/mod%d.(*worker).loop(0xc000%06x)\n\tsvc/mod%d/worker.go:%d +0x%x\n"+
			"created by svc/mod%d.start in goroutine 1\n\tsvc/mod%d/start.go:22 +0x7c\n\n",
			i, states[i%len(states)], m, i, m, 10+i%211, i%4096, m, m)
	}
	return b.Bytes()
}()

// scanProbe counts the dump's goroutines by state and first non-runtime
// location. It allocates nothing per goroutine: an allocating probe would
// be charged the garbage collector's assists whenever the generator's heap
// is being marked, and time the generator's allocation instead of the box.
func scanProbe(dump []byte) int {
	counts := make(map[uint64]int, 1024)
	var state []byte
	want := false
	for len(dump) > 0 {
		i := bytes.IndexByte(dump, '\n')
		if i < 0 {
			i = len(dump)
		}
		line := dump[:i]
		dump = dump[min(i+1, len(dump)):]
		switch {
		case bytes.HasPrefix(line, []byte("goroutine ")):
			open, end := bytes.IndexByte(line, '['), bytes.IndexByte(line, ']')
			if open > 0 && end > open {
				state, want = line[open+1:end], true
			}
		case want && len(line) > 0 && line[0] == '\t' && !bytes.Contains(line, []byte("/runtime/")):
			loc := line[1:]
			if sp := bytes.IndexByte(loc, ' '); sp > 0 {
				loc = loc[:sp]
			}
			counts[fnv64(fnv64(fnvOffset, state), loc)]++
			want = false
		}
	}
	return len(counts)
}

// fnvOffset is the 64-bit FNV-1a offset basis, the hash of nothing.
const fnvOffset = 14695981039346656037

// fnv64 extends the FNV-1a hash h with b.
func fnv64(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// probe returns the thread CPU time, in milliseconds, of scanning the
// probe dump a fixed number of times.
func probe() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	for i := 0; i < 4; i++ {
		scanProbe(probeDump)
	}
	return float64(threadCPU()-start) / 1e6
}

// threadCPU is the calling thread's CPU time in nanoseconds, from the
// scheduler's exact per-thread clock; getrusage's per-thread figure moves
// in whole scheduler ticks, too coarse for a 5 ms probe.
func threadCPU() int64 {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return ts.Nano()
}

// prober keeps a run's probe times.
type prober struct {
	mu      sync.Mutex
	samples []probeSample
}

// probeSample is one probe time (ms) and when the probe ended.
type probeSample struct {
	at time.Time
	ms float64
}

// take probes once.
func (p *prober) take() {
	ms := probe()
	p.mu.Lock()
	p.samples = append(p.samples, probeSample{time.Now(), ms})
	p.mu.Unlock()
}

// every probes in the background at the given period until the returned
// function is called; that function waits for the last probe to end.
func (p *prober) every(period time.Duration) (halt func()) {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				p.take()
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

// mean is the mean probe time over the samples taken between from and to,
// and how many there were.
func (p *prober) mean(from, to time.Time) (float64, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var sum float64
	n := 0
	for _, s := range p.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			sum += s.ms
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}
