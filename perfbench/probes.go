package main

// Probes: everything the benchmark installs at the service's public seams
// to see inside it without editing it. A net.Listener/net.Conn pair counts
// and times rpc frames on both ends of the loopback connection, a
// sailor.Recorder wrapper times journal appends around *persist.Store, and
// persist.Config.WrapJournal times the journal's writes and fsyncs.
// Counters run on every call (atomic adds); timed events are recorded only
// while tracing is on and stay in memory until the run ends.

import (
	"bytes"
	"net"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/model"
	"repro/internal/persist"
)

// probes is shared by every connection, recorder and journal of one run
// (including the daemons a crash-and-recover sequence boots in turn).
type probes struct {
	epoch   time.Time
	tracing atomic.Bool

	reqBytes, replyBytes atomic.Int64 // client side: frames written, frames read
	records              atomic.Int64 // Recorder calls
	ledgerOps            [8]atomic.Int64
	journalBytes         atomic.Int64
	fsyncs               atomic.Int64

	conns atomic.Int64 // connections dialled so far (conn ids)

	mu  sync.Mutex
	log traceLog
}

func newProbes() *probes { return &probes{epoch: time.Now()} }

// now is nanoseconds since the run's epoch (monotonic).
func (p *probes) now() int64 { return int64(time.Since(p.epoch)) }

// traceLog holds the raw timed events of traced operations; attribution
// into a span tree happens once, after the run (see spans.go).
type traceLog struct {
	ops      []opEvent
	calls    []callEvent
	writes   []ioEvent // client conn writes (one whole request frame each)
	reads    []ioEvent // client conn reply frames
	srvRecv  []ioEvent // server conn: request frame fully received
	srvSend  []ioEvent // server conn: reply frame write
	appends  []appendEvent
	jwrites  []ioEvent
	jsyncs   []ioEvent
	connAddr map[string]int // client conn local address -> conn id
}

type opEvent struct {
	Op         int64
	Name, Job  string
	Start, End int64 // Start is the due time for open-loop requests
}

type callEvent struct {
	Call, Op   int64
	Method     string
	Conn       int
	Start, End int64
	SearchNS   int64 // planner-reported SearchTime summed over the reply
}

type ioEvent struct {
	Conn       int // the client conn's id (server events: of the client end)
	RPC        uint64
	Call       int64 // client writes: the tagged call
	Start, End int64
	Bytes      int64
}

type appendEvent struct {
	Job, Kind  string
	Start, End int64
}

func (p *probes) addOp(e opEvent) {
	p.mu.Lock()
	p.log.ops = append(p.log.ops, e)
	p.mu.Unlock()
}

func (p *probes) addCall(e callEvent) {
	p.mu.Lock()
	p.log.calls = append(p.log.calls, e)
	p.mu.Unlock()
}

func (p *probes) add(dst *[]ioEvent, e ioEvent) {
	p.mu.Lock()
	*dst = append(*dst, e)
	p.mu.Unlock()
}

// rpcID extracts the envelope id from the start of an rpc frame body: the
// envelope's first field is always `"id"` (encoding/json keeps declaration
// order), so a frame body begins `{"id":<digits>`.
func rpcID(body []byte) (uint64, bool) {
	const pre = `{"id":`
	if !bytes.HasPrefix(body, []byte(pre)) {
		return 0, false
	}
	b := body[len(pre):]
	i := 0
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	id, err := strconv.ParseUint(string(b[:i]), 10, 64)
	return id, err == nil
}

// framer follows the length-prefixed frame boundaries of one byte stream
// (a conn's read side, which bufio chunks arbitrarily) and reports each
// completed frame with its rpc id, size and the time its first byte came in.
type framer struct {
	hdr     [4]byte
	nh      int
	left    int
	size    int
	pre     []byte
	firstAt int64
}

func (f *framer) feed(b []byte, at int64, done func(id uint64, size int, firstAt int64)) {
	for len(b) > 0 {
		if f.nh < 4 {
			if f.nh == 0 {
				f.firstAt = at
			}
			k := copy(f.hdr[f.nh:], b)
			f.nh += k
			b = b[k:]
			if f.nh == 4 {
				f.size = int(uint32(f.hdr[0])<<24 | uint32(f.hdr[1])<<16 | uint32(f.hdr[2])<<8 | uint32(f.hdr[3]))
				f.left = f.size
				f.pre = f.pre[:0]
			}
			if f.nh < 4 || f.left > 0 {
				continue
			}
		}
		k := f.left
		if k > len(b) {
			k = len(b)
		}
		if room := 32 - len(f.pre); room > 0 {
			f.pre = append(f.pre, b[:min(room, k)]...)
		}
		f.left -= k
		b = b[k:]
		if f.left == 0 {
			id, _ := rpcID(f.pre)
			done(id, 4+f.size, f.firstAt)
			f.nh = 0
		}
	}
}

// tagSlot hands the id of a traced call to the conn write that carries its
// request frame. The rpc client writes each frame whole, under its own
// write lock, on the calling goroutine; the slot's lock makes the next
// tagged frame on the conn belong to exactly one call.
type tagSlot struct {
	mu   sync.Mutex
	call atomic.Int64
}

func (s *tagSlot) put(call int64) {
	s.mu.Lock()
	s.call.Store(call)
}

// take claims the slot for the frame being written (0 = untagged).
func (s *tagSlot) take() int64 {
	c := s.call.Swap(0)
	if c != 0 {
		s.mu.Unlock()
	}
	return c
}

// release frees the slot if call never reached the conn (it failed before
// writing).
func (s *tagSlot) release(call int64) {
	if s.call.CompareAndSwap(call, 0) {
		s.mu.Unlock()
	}
}

// clientConn wraps the client end of one loopback connection. Its id is
// unique in the run: rpc ids restart on every connection, and a recovered
// daemon gets new ones.
type clientConn struct {
	net.Conn
	p    *probes
	id   int
	slot *tagSlot
	rd   framer // touched only by the rpc client's read loop
}

// Writes sample the tracing switch before writing: the reply can reach
// the client, which may then turn tracing off, before Write returns.
func (c *clientConn) Write(b []byte) (int, error) {
	call := c.slot.take()
	tr := c.p.tracing.Load()
	start := c.p.now()
	n, err := c.Conn.Write(b)
	c.p.reqBytes.Add(int64(n))
	if tr && n >= 4 {
		id, _ := rpcID(b[4:n])
		c.p.add(&c.p.log.writes, ioEvent{Conn: c.id, RPC: id, Call: call, Start: start, End: c.p.now(), Bytes: int64(n)})
	}
	return n, err
}

func (c *clientConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.p.replyBytes.Add(int64(n))
	at := c.p.now()
	tr := c.p.tracing.Load()
	c.rd.feed(b[:n], at, func(id uint64, size int, first int64) {
		if tr {
			c.p.add(&c.p.log.reads, ioEvent{Conn: c.id, RPC: id, Start: first, End: at, Bytes: int64(size)})
		}
	})
	return n, err
}

// dialer returns a sailor.DialConfig.Dialer that wraps each connection it
// opens, sharing slot with the caller's traced calls.
func (p *probes) dialer(slot *tagSlot) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
		if err != nil {
			return nil, err
		}
		id := int(p.conns.Add(1))
		p.mu.Lock()
		if p.log.connAddr == nil {
			p.log.connAddr = map[string]int{}
		}
		p.log.connAddr[conn.LocalAddr().String()] = id
		p.mu.Unlock()
		return &clientConn{Conn: conn, p: p, id: id, slot: slot}, nil
	}
}

// listener wraps the daemon's listener so every accepted conn is probed.
type listener struct {
	net.Listener
	p *probes
}

func (l listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &serverConn{Conn: c, p: l.p, peer: c.RemoteAddr().String()}, nil
}

// serverConn wraps the daemon's end of one connection: it timestamps the
// moment each request frame is fully received and each reply frame write.
// It learns its client end's conn id from the peer address at the first
// read: by then the dialer has registered it, and no later connection can
// reuse the address while this one is open.
type serverConn struct {
	net.Conn
	p    *probes
	peer string
	cid  atomic.Int64
	rd   framer
}

func (c *serverConn) clientID() int {
	if id := c.cid.Load(); id != 0 {
		return int(id)
	}
	c.p.mu.Lock()
	id := c.p.log.connAddr[c.peer]
	c.p.mu.Unlock()
	c.cid.Store(int64(id))
	return id
}

func (c *serverConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	at := c.p.now()
	tr := c.p.tracing.Load()
	c.rd.feed(b[:n], at, func(id uint64, size int, first int64) {
		if tr {
			c.p.add(&c.p.log.srvRecv, ioEvent{Conn: c.clientID(), RPC: id, Start: first, End: at, Bytes: int64(size)})
		}
	})
	return n, err
}

func (c *serverConn) Write(b []byte) (int, error) {
	tr := c.p.tracing.Load()
	start := c.p.now()
	n, err := c.Conn.Write(b)
	if tr && n >= 4 {
		id, _ := rpcID(b[4:n])
		c.p.add(&c.p.log.srvSend, ioEvent{Conn: c.clientID(), RPC: id, Start: start, End: c.p.now(), Bytes: int64(n)})
	}
	return n, err
}

// recorder is the sailor.Recorder the benchmark attaches in place of the
// bare *persist.Store: it forwards every call and times it. Embedding the
// store keeps Err visible to Service.Stats, as in the daemon.
type recorder struct {
	*persist.Store
	p *probes
}

func (r *recorder) timed(job, kind string, f func()) {
	r.p.records.Add(1)
	if !r.p.tracing.Load() {
		f()
		return
	}
	start := r.p.now()
	f()
	r.p.mu.Lock()
	r.p.log.appends = append(r.p.log.appends, appendEvent{Job: job, Kind: kind, Start: start, End: r.p.now()})
	r.p.mu.Unlock()
}

func (r *recorder) RecordOpenJob(job string, m model.Config, gpus []core.GPUType, priority int) {
	r.timed(job, "open", func() { r.Store.RecordOpenJob(job, m, gpus, priority) })
}

func (r *recorder) RecordCloseJob(job string) {
	r.timed(job, "close", func() { r.Store.RecordCloseJob(job) })
}

func (r *recorder) RecordJobPlan(job string, plan core.Plan, obj core.Objective, cons core.Constraints) {
	r.timed(job, "plan", func() { r.Store.RecordJobPlan(job, plan, obj, cons) })
}

func (r *recorder) RecordSetFleet(snap fleet.Snapshot) {
	r.timed("", "setfleet", func() { r.Store.RecordSetFleet(snap) })
}

func (r *recorder) RecordLedgerOp(op fleet.Op) {
	if k := int(op.Kind); k >= 0 && k < len(r.p.ledgerOps) {
		r.p.ledgerOps[k].Add(1)
	}
	r.timed(op.Job, "ledger."+op.Kind.String(), func() { r.Store.RecordLedgerOp(op) })
}

// journal times the journal file's writes and fsyncs (persist.Config's
// WrapJournal seam).
type journal struct {
	persist.JournalFile
	p *probes
}

func (p *probes) wrapJournal(_ uint64, f persist.JournalFile) persist.JournalFile {
	return &journal{JournalFile: f, p: p}
}

func (j *journal) Write(b []byte) (int, error) {
	tr := j.p.tracing.Load()
	start := j.p.now()
	n, err := j.JournalFile.Write(b)
	j.p.journalBytes.Add(int64(n))
	if tr {
		j.p.add(&j.p.log.jwrites, ioEvent{Start: start, End: j.p.now(), Bytes: int64(n)})
	}
	return n, err
}

func (j *journal) Sync() error {
	tr := j.p.tracing.Load()
	start := j.p.now()
	err := j.JournalFile.Sync()
	j.p.fsyncs.Add(1)
	if tr {
		j.p.add(&j.p.log.jsyncs, ioEvent{Start: start, End: j.p.now()})
	}
	return err
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	cpu     time.Duration // user + system
	mallocs uint64
	bytes   uint64
	gcCPU   float64 // seconds
	allCPU  float64 // seconds, as the Go runtime accounts it
}

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: cpuMetrics[0]}, {Name: cpuMetrics[1]}}
	metrics.Read(s)
	u := usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		u.allCPU = s[1].Value.Float64()
	}
	return u
}

var allocMetrics = []string{"/gc/heap/allocs:objects", "/gc/heap/tiny/allocs:objects", "/gc/heap/allocs:bytes"}

// allocCounts is the heap allocations made so far, as runtime.MemStats
// counts Mallocs and TotalAlloc, without stopping the world.
func allocCounts() (objects, bytes uint64) {
	s := make([]metrics.Sample, len(allocMetrics))
	for i, n := range allocMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64(), s[2].Value.Uint64()
}

// hostCPU is the machine-wide CPU time from the first line of /proc/stat,
// in clock ticks: all of it, and the part the hypervisor stole.
type hostCPU struct {
	total, steal uint64
	ok           bool
}

func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	h := hostCPU{ok: true}
	// user nice system idle iowait irq softirq steal (guest time is
	// already counted in user).
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return hostCPU{}
		}
		h.total += v
		if i == 8 {
			h.steal = v
		}
	}
	return h
}

// stealSince is the share of the host's CPU time stolen since h0 (0 where
// /proc/stat is unreadable).
func (h hostCPU) stealSince(h0 hostCPU) float64 {
	if !h.ok || !h0.ok || h.total <= h0.total {
		return 0
	}
	return float64(h.steal-h0.steal) / float64(h.total-h0.total)
}

// memSampler tracks, every 20 ms, the memory the Go runtime holds from
// the OS (mapped minus released) and keeps the peak since the last cut.
type memSampler struct {
	mu   sync.Mutex
	peak float64
	s    []metrics.Sample
	done chan struct{}
	wg   sync.WaitGroup
}

func startMemSampler() *memSampler {
	m := &memSampler{
		s:    []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}},
		done: make(chan struct{}),
	}
	m.peak = m.read()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				m.read()
			case <-m.done:
				return
			}
		}
	}()
	return m
}

// read samples the current value (MiB) and folds it into the peak.
func (m *memSampler) read() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	metrics.Read(m.s)
	v := float64(m.s[0].Value.Uint64()-m.s[1].Value.Uint64()) / (1 << 20)
	if v > m.peak {
		m.peak = v
	}
	return v
}

// cut returns the peak since the previous cut and starts a new interval.
func (m *memSampler) cut() float64 {
	v := m.read()
	m.mu.Lock()
	defer m.mu.Unlock()
	peak := m.peak
	m.peak = v
	return peak
}

func (m *memSampler) stop() {
	close(m.done)
	m.wg.Wait()
}
