package main

// calib measures how fast this machine's CPU runs right now. On a shared
// VM the program's CPU time per op rises by a fifth or more for minutes at
// a time while neighbours load the host. The guest kernel already leaves
// the stolen time itself out of the process's CPU time (paravirt steal
// accounting), so what remains is slower execution: shared caches, memory
// bandwidth and sibling hyperthreads. A run therefore interleaves a fixed
// slice of the benchmark's own work between ops and times each slice's
// thread CPU; cpu_ms_per_op is reported at the speed at which one slice
// takes calRefMS, so a slow period scales the op and the slice alike and
// leaves the figure where it was.
//
// The slice mixes the kinds of work the service does: map lookups over a
// table larger than L1, a sort, a float loop like the planner's dynamic
// programme, small syscalls, and JSON round trips of a wire-like document.
// On the development VM, over 37 runs of one fleet-storm seed across quiet
// and slow periods, scaling by this mix halved the spread of CPU per op
// (coefficient of variation 5.5% -> 2.8%); a 4 MiB pointer chase, which the
// neighbours slow far more than they slow the service, made it worse and
// is left out. The slice runs only the benchmark's code and the standard
// library: a faster program moves the figures, and no change to the
// repository can make the slice faster.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

const (
	// calEvery is how often a timed phase runs a slice, between ops.
	calEvery = 50 * time.Millisecond
	// calRefMS is the thread CPU of one slice on the development VM (a
	// 2-vCPU Xeon) in a quiet period; the figures are scaled to that speed.
	calRefMS = 1.8
)

// calWork is the slice's working set, built once per process.
type calWork struct {
	table map[uint32]uint32
	keys  []uint32 // half of them in the table
	vals  []int
	buf   []int
	dp    []float64
	sink  uint64
}

var calWorkOnce = sync.OnceValue(func() *calWork {
	rng := rand.New(rand.NewSource(1))
	w := &calWork{table: make(map[uint32]uint32, 1<<14)}
	for i := 0; i < 1<<14; i++ {
		k := rng.Uint32()
		w.table[k] = uint32(i)
		w.keys = append(w.keys, k, rng.Uint32())
	}
	w.vals = make([]int, 2048)
	for i := range w.vals {
		w.vals[i] = rng.Int()
	}
	w.buf = make([]int, len(w.vals))
	w.dp = make([]float64, 512)
	w.slice() // builds json's type caches and faults the working set in
	return w
})

// calDoc is the slice's JSON document, shaped like a small wire message.
type calDoc struct {
	Name   string            `json:"name"`
	Stages []calStage        `json:"stages"`
	Labels map[string]string `json:"labels"`
	Score  float64           `json:"score"`
}

type calStage struct {
	Zone     string    `json:"zone"`
	GPU      string    `json:"gpu"`
	Layers   []int     `json:"layers"`
	Times    []float64 `json:"times"`
	Degraded bool      `json:"degraded,omitempty"`
}

var calDocument = func() calDoc {
	d := calDoc{Name: "calibration", Labels: map[string]string{}, Score: 0.125}
	for i := 0; i < 6; i++ {
		st := calStage{Zone: fmt.Sprintf("us-central1-%c", 'a'+i%3), GPU: []string{"A100-40", "V100-16"}[i%2], Degraded: i == 4}
		for l := 0; l < 8; l++ {
			st.Layers = append(st.Layers, 8*i+l)
			st.Times = append(st.Times, float64(8*i+l)*0.0173)
		}
		d.Stages = append(d.Stages, st)
		d.Labels[fmt.Sprintf("k%d", i)] = st.Zone
	}
	return d
}()

// slice is one fixed unit of work.
func (w *calWork) slice() {
	hits := uint32(0)
	for _, k := range w.keys {
		hits += w.table[k]
	}
	copy(w.buf, w.vals)
	slices.Sort(w.buf)
	for r := 0; r < 40; r++ {
		for i := 1; i < len(w.dp); i++ {
			w.dp[i] = min(w.dp[i], w.dp[i-1]*0.999+float64(i&7))
		}
	}
	for i := 0; i < 100; i++ {
		w.sink += uint64(syscall.Getppid())
	}
	for i := 0; i < 10; i++ {
		b, err := json.Marshal(&calDocument)
		var back calDoc
		if err == nil {
			err = json.Unmarshal(b, &back)
		}
		if err != nil || back.Name != calDocument.Name {
			panic(fmt.Sprintf("calibration round trip: %v", err))
		}
	}
	w.sink += uint64(hits) + uint64(w.buf[0]) + uint64(w.dp[len(w.dp)-1])
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// calib runs slices and keeps their thread CPU.
type calib struct {
	w    *calWork
	last time.Time
	cpu  time.Duration // thread CPU of every slice so far
	n    int
}

func newCalib() *calib { return &calib{w: calWorkOnce()} }

// tick runs a slice if calEvery has passed since the last one, and
// returns its wall time and thread CPU (zero when none ran).
func (c *calib) tick() (wall, cpu time.Duration) {
	if time.Since(c.last) < calEvery {
		return 0, 0
	}
	runtime.LockOSThread()
	t0, c0 := time.Now(), threadCPU()
	c.w.slice()
	cpu, wall = threadCPU()-c0, time.Since(t0)
	runtime.UnlockOSThread()
	c.last = time.Now()
	c.cpu += cpu
	c.n++
	return wall, cpu
}

// speed is the slices' mean thread CPU over the reference: 1 at the
// reference speed, above 1 when the machine runs slower (0 when none ran).
func speed(cpu time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return ms(cpu) / float64(n) / calRefMS
}
