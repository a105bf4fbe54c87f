package main

// Span attribution: the raw events the probes logged during traced
// operations become one span tree per operation, in the style of Dapper:
//
//	op.<kind>               root: due time (open loop) or start, to reply
//	  call.<method>         one client call over the wire
//	    conn.write          the request frame leaving the client
//	    server              request fully received .. reply write starts
//	      planner.search    the planner's reported SearchTime (placed, not seen)
//	      persist.append    one Recorder call (journal record)
//	        journal.write   the record's write(2)
//	        journal.fsync   its fsync
//	    conn.read           the reply frame arriving at the client
//
// Conn spans belong to calls exactly (the request frame is tagged; the
// reply carries the same rpc id). A journal append belongs to the server
// span that contains it and serves the same job (any job for fleet steps);
// when several contain it, the one that ends first holds the lock it ran
// under. planner.search has no observed interval: it is placed ending where
// the first journal append starts (or at the reply) with the reported
// duration, clipped to the server span.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Op       int64  `json:"op"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Bytes    int64  `json:"bytes,omitempty"`
	Job      string `json:"job,omitempty"`
	Reported bool   `json:"reported,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

type rpcKey struct {
	conn int
	rpc  uint64
}

// buildSpans attributes the logged events to the traced operations.
func buildSpans(l *traceLog) []span {
	var out []span
	add := func(s span) int {
		s.ID = int64(len(out) + 1)
		out = append(out, s)
		return len(out) - 1
	}
	root := map[int64]int{}
	opJob := map[int64]string{}
	for _, o := range l.ops {
		root[o.Op] = add(span{Op: o.Op, Name: "op." + o.Name, Start: o.Start, End: o.End, Job: o.Job})
		opJob[o.Op] = o.Job
	}
	callSpan := map[int64]int{}
	callEv := map[int64]callEvent{}
	for _, c := range l.calls {
		r, ok := root[c.Op]
		if !ok {
			continue
		}
		callSpan[c.Call] = add(span{Parent: out[r].ID, Op: c.Op, Name: "call." + c.Method, Start: c.Start, End: c.End})
		callEv[c.Call] = c
	}
	byRPC := map[rpcKey]int64{}
	for _, w := range l.writes {
		ci, ok := callSpan[w.Call]
		if !ok {
			continue
		}
		byRPC[rpcKey{w.Conn, w.RPC}] = w.Call
		add(span{Parent: out[ci].ID, Op: out[ci].Op, Name: "conn.write", Start: w.Start, End: w.End, Bytes: w.Bytes})
	}
	for _, r := range l.reads {
		call, ok := byRPC[rpcKey{r.Conn, r.RPC}]
		if !ok {
			continue
		}
		ci := callSpan[call]
		add(span{Parent: out[ci].ID, Op: out[ci].Op, Name: "conn.read", Start: r.Start, End: r.End, Bytes: r.Bytes})
	}
	recv := map[rpcKey]int64{}
	for _, r := range l.srvRecv {
		recv[rpcKey{r.Conn, r.RPC}] = r.End
	}
	var servers []int
	serverOfCall := map[int64]int{}
	for _, s := range l.srvSend {
		k := rpcKey{s.Conn, s.RPC}
		call, ok := byRPC[k]
		start, ok2 := recv[k]
		if !ok || !ok2 {
			continue
		}
		ci := callSpan[call]
		i := add(span{Parent: out[ci].ID, Op: out[ci].Op, Name: "server", Start: start, End: s.Start, Job: opJob[out[ci].Op]})
		servers = append(servers, i)
		serverOfCall[call] = i
	}
	// Journal appends into server spans.
	firstAppend := map[int]int64{}
	var appends []int
	for _, a := range l.appends {
		best := -1
		for _, si := range servers {
			s := out[si]
			if s.Start <= a.Start && a.End <= s.End && (s.Job == "" || s.Job == a.Job) {
				if best < 0 || s.End < out[best].End {
					best = si
				}
			}
		}
		if best < 0 {
			continue
		}
		i := add(span{Parent: out[best].ID, Op: out[best].Op, Name: "persist.append", Start: a.Start, End: a.End, Job: a.Job})
		appends = append(appends, i)
		if f, ok := firstAppend[best]; !ok || a.Start < f {
			firstAppend[best] = a.Start
		}
	}
	for _, ev := range [][]ioEvent{l.jwrites, l.jsyncs} {
		for _, e := range ev {
			best := -1
			for _, ai := range appends {
				a := out[ai]
				if a.Start <= e.Start && e.End <= a.End && (best < 0 || a.End < out[best].End) {
					best = ai
				}
			}
			if best < 0 {
				continue
			}
			name := "journal.write"
			if e.Bytes == 0 {
				name = "journal.fsync"
			}
			add(span{Parent: out[best].ID, Op: out[best].Op, Name: name, Start: e.Start, End: e.End, Bytes: e.Bytes})
		}
	}
	for call, si := range serverOfCall {
		c := callEv[call]
		if c.SearchNS <= 0 {
			continue
		}
		s := out[si]
		end := s.End
		if f, ok := firstAppend[si]; ok {
			end = f
		}
		d := c.SearchNS
		if d > end-s.Start {
			d = end - s.Start
		}
		add(span{Parent: s.ID, Op: s.Op, Name: "planner.search", Start: end - d, End: end, Reported: true})
	}
	return out
}

// selfTimes returns each span's duration minus the part of it its
// children cover (indexed like spans).
func selfTimes(spans []span) []int64 {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, curS, curE := int64(0), int64(-1), int64(-1)
		for _, k := range iv {
			a, b := max(k[0], s.Start), min(k[1], s.End)
			if b <= a {
				continue
			}
			if a > curE {
				covered += curE - curS
				curS, curE = a, b
			} else if b > curE {
				curE = b
			}
		}
		covered += curE - curS
		self[i] = s.dur() - covered
	}
	return self
}

// layerShares sums, over the traced ops of one kind, each layer's self
// time as a share of the ops' total duration (percent). Layers group span
// names: wait (the root's own time: an open-loop request waiting past its
// due time to be sent), client (calls and conn spans: encode, decode,
// transport), server (request handling outside search and
// journal: queueing, bookkeeping, server-side encode/decode), search,
// journal (appends, their writes and fsyncs) and fsync alone.
func layerShares(spans []span, kind string) map[string]float64 {
	self := selfTimes(spans)
	inKind := map[int64]bool{}
	total := 0.0
	for _, s := range spans {
		if s.Parent == 0 && s.Name == "op."+kind {
			inKind[s.Op] = true
			total += float64(s.dur())
		}
	}
	sum := map[string]float64{}
	for i, s := range spans {
		if !inKind[s.Op] {
			continue
		}
		layer := "client"
		switch s.Name {
		case "op." + kind:
			layer = "wait"
		case "server":
			layer = "server"
		case "planner.search":
			layer = "search"
		case "persist.append", "journal.write":
			layer = "journal"
		case "journal.fsync":
			sum["fsync"] += float64(self[i])
			layer = "journal"
		}
		sum[layer] += float64(self[i])
	}
	out := map[string]float64{}
	for k, v := range sum {
		out[k] = 100 * ratio(v, total)
	}
	return out
}

// opAppendNS sums, per op, the durations of the journal appends
// attributed to it.
func opAppendNS(spans []span) map[int64]int64 {
	out := map[int64]int64{}
	for _, s := range spans {
		if s.Name == "persist.append" {
			out[s.Op] += s.dur()
		}
	}
	return out
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
