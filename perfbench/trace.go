package main

import (
	"context"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dnswire"
	"repro/internal/netsim"
)

// This file is the traced run's span recorder. Spans are recorded from
// the benchmark's own files, around the calls into each layer: the
// netsim.Exchanger seam (client → server), the netsim.Handler seam
// (resolver and authoritative servers), and the phase calls the
// replicas make (generate, deploy, probe, …). Spans of one client
// query share a trace ID; the parent span ID travels in the context,
// so an authoritative lookup a resolver makes while handling a client
// query is recorded as that query's child.

// Span kinds recorded at the seams.
const (
	kindExchange = "netsim.exchange"
	kindResolver = "resolver.handle"
	kindAuth     = "authserver.handle"
	// kindOverhead marks time the recorder itself spends (sampling a
	// response size); recorded as a child of the enclosing span so no
	// layer's self time includes it.
	kindOverhead = "trace.overhead"
)

// span is one recorded interval. Times are nanoseconds since the
// recorder's start.
type span struct {
	id, parent, trace uint64
	kind              string
	start, end        int64
	// Authoritative spans only: the response's RCODE, the query type,
	// the NSEC3 iteration count it proved with (-1: none), and the
	// packed size when sampled (0: not sampled).
	rcode dnswire.RCode
	qtype dnswire.Type
	iters int
	bytes int
}

func (s *span) dur() int64 { return s.end - s.start }

// recorder keeps every span in memory until the run ends.
type recorder struct {
	t0     time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

//repro:nondeterministic span clock origin; spans are telemetry only
func newRecorder() *recorder { return &recorder{t0: time.Now()} }

//repro:nondeterministic span timestamps are telemetry only
func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// phase times fn as a top-level span of the given kind.
func (r *recorder) phase(kind string, fn func() error) error {
	var err error
	r.timed(kind, func() { err = fn() })
	return err
}

// timed is phase for calls that cannot fail.
func (r *recorder) timed(kind string, fn func()) {
	s := span{id: r.nextID.Add(1), kind: kind, start: r.now()}
	fn()
	s.end = r.now()
	s.trace = s.id
	r.add(s)
}

type spanKey struct{}

type spanRef struct{ id, trace uint64 }

// open starts a span under the one carried by ctx and returns the
// context its callees should see.
func (r *recorder) open(ctx context.Context, kind string) (context.Context, span) {
	s := span{id: r.nextID.Add(1), kind: kind, iters: -1}
	if p, ok := ctx.Value(spanKey{}).(spanRef); ok {
		s.parent, s.trace = p.id, p.trace
	} else {
		s.trace = s.id
	}
	s.start = r.now()
	return context.WithValue(ctx, spanKey{}, spanRef{s.id, s.trace}), s
}

// exchanger wraps a netsim.Exchanger: one netsim.exchange span per
// client query, covering both codec passes and the handler.
type exchanger struct {
	rec  *recorder
	next netsim.Exchanger
}

func (e exchanger) Exchange(ctx context.Context, server netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error) {
	ctx, s := e.rec.open(ctx, kindExchange)
	resp, err := e.next.Exchange(ctx, server, q)
	s.end = e.rec.now()
	e.rec.add(s)
	return resp, err
}

// handler wraps a netsim.Handler with a span of the given kind.
type handler struct {
	rec  *recorder
	kind string
	next netsim.Handler
	// sampled counts authoritative responses, one in sizeSample of
	// which is packed to measure its size.
	sampled *atomic.Uint64
}

const sizeSample = 16

func (h handler) Handle(ctx context.Context, from netip.AddrPort, q *dnswire.Message) *dnswire.Message {
	ctx, s := h.rec.open(ctx, h.kind)
	resp := h.next.Handle(ctx, from, q)
	s.end = h.rec.now()
	if h.kind == kindAuth && resp != nil {
		s.rcode = resp.ExtendedRCode()
		s.qtype = q.Question().Type
		for _, rr := range resp.Authority {
			if n3, ok := rr.Data.(dnswire.NSEC3); ok {
				s.iters = int(n3.Iterations)
				break
			}
		}
		if h.sampled.Add(1)%sizeSample == 0 {
			// The sample runs after this span ends, inside its parent.
			o := span{id: h.rec.nextID.Add(1), parent: s.parent, trace: s.trace, kind: kindOverhead, start: s.end}
			if wire, err := resp.Pack(); err == nil {
				s.bytes = len(wire)
			}
			o.end = h.rec.now()
			h.rec.add(o)
		}
	}
	h.rec.add(s)
	return resp
}

// wrap re-registers the handler at addr behind a traced handler.
func (r *recorder) wrap(net *netsim.Network, addr netip.AddrPort, kind string, counter *atomic.Uint64) {
	if h, ok := net.Lookup(addr); ok {
		net.Register(addr, handler{rec: r, kind: kind, next: h, sampled: counter})
	}
}

// spanIndex is the recorded span set indexed for self-time queries.
type spanIndex struct {
	spans    []span
	byID     map[uint64]int
	children map[uint64][]int
}

func (r *recorder) index() *spanIndex {
	r.mu.Lock()
	spans := r.spans
	r.mu.Unlock()
	ix := &spanIndex{spans: spans, byID: make(map[uint64]int, len(spans)), children: make(map[uint64][]int)}
	for i := range spans {
		ix.byID[spans[i].id] = i
		if spans[i].parent != 0 {
			ix.children[spans[i].parent] = append(ix.children[spans[i].parent], i)
		}
	}
	return ix
}

// self returns a span's duration minus the time its children cover.
func (ix *spanIndex) self(i int) int64 {
	s := &ix.spans[i]
	var iv [][2]int64
	for _, c := range ix.children[s.id] {
		iv = append(iv, [2]int64{max(ix.spans[c].start, s.start), min(ix.spans[c].end, s.end)})
	}
	return s.dur() - covered(iv)
}

// covered is the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, v := range iv {
		if v[1] <= v[0] {
			continue
		}
		if !open || v[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = v[0], v[1], true
		} else if v[1] > curE {
			curE = v[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// parentKind returns the kind of span i's parent ("" for roots).
func (ix *spanIndex) parentKind(i int) string {
	if p, ok := ix.byID[ix.spans[i].parent]; ok {
		return ix.spans[p].kind
	}
	return ""
}

// layerStats summarizes the seam spans into per-layer metrics.
func (ix *spanIndex) layerStats(m map[string]float64) {
	var resDur, authDur, nxDur []time.Duration
	var exchanges, resolverQ, authQ, upstream, sizeN int
	var codecSelf, resSelf, authSelf int64
	var bytes int
	for i := range ix.spans {
		s := &ix.spans[i]
		switch s.kind {
		case kindExchange:
			exchanges++
			codecSelf += ix.self(i)
		case kindResolver:
			resolverQ++
			resSelf += ix.self(i)
			resDur = append(resDur, time.Duration(s.dur()))
		case kindAuth:
			authQ++
			authSelf += ix.self(i)
			authDur = append(authDur, time.Duration(s.dur()))
			if s.rcode == dnswire.RCodeNXDomain {
				nxDur = append(nxDur, time.Duration(s.dur()))
			}
			if ix.parentKind(i) == kindResolver {
				upstream++
			}
			if s.bytes > 0 {
				sizeN++
				bytes += s.bytes
			}
		}
	}
	m["netsim.exchanges"] = float64(exchanges)
	m["netsim.codec_self_s"] = float64(codecSelf) / 1e9
	m["resolver.client_queries"] = float64(resolverQ)
	m["resolver.self_s"] = float64(resSelf) / 1e9
	m["resolver.us_p50"] = quantileDur(resDur, 0.50)
	m["resolver.us_p99"] = quantileDur(resDur, 0.99)
	if resolverQ > 0 {
		m["resolver.upstream_per_query"] = float64(upstream) / float64(resolverQ)
	}
	m["authserver.queries"] = float64(authQ)
	m["authserver.self_s"] = float64(authSelf) / 1e9
	m["authserver.us_p50"] = quantileDur(authDur, 0.50)
	m["authserver.us_p99"] = quantileDur(authDur, 0.99)
	m["authserver.nxdomain_us_p50"] = quantileDur(nxDur, 0.50)
	if sizeN > 0 {
		m["authserver.bytes_per_response"] = float64(bytes) / float64(sizeN)
	}
}

// topLevelCovered is the wall time covered by root phase spans (the
// replica's own phase calls; seam spans with no parent are nested in
// time inside them and add nothing to the union).
func (ix *spanIndex) topLevelCovered() int64 {
	var iv [][2]int64
	for i := range ix.spans {
		if ix.spans[i].parent == 0 {
			iv = append(iv, [2]int64{ix.spans[i].start, ix.spans[i].end})
		}
	}
	return covered(iv)
}

// durations returns the durations of every span of kind.
func (ix *spanIndex) durations(kind string) []time.Duration {
	var out []time.Duration
	for i := range ix.spans {
		if ix.spans[i].kind == kind {
			out = append(out, time.Duration(ix.spans[i].dur()))
		}
	}
	return out
}

// sum returns the total duration of spans of kind, in seconds.
func (ix *spanIndex) sum(kind string) float64 {
	var t time.Duration
	for _, d := range ix.durations(kind) {
		t += d
	}
	return t.Seconds()
}

// queryMix tallies authoritative queries by qtype × rcode × NSEC3
// iteration bucket.
func (ix *spanIndex) queryMix() map[string]int {
	mix := make(map[string]int)
	for i := range ix.spans {
		s := &ix.spans[i]
		if s.kind != kindAuth {
			continue
		}
		mix[s.qtype.String()+"/"+s.rcode.String()+"/"+iterBucket(s.iters)]++
	}
	return mix
}

func iterBucket(it int) string {
	switch {
	case it < 0:
		return "no-nsec3"
	case it == 0:
		return "it0"
	case it <= 25:
		return "it1-25"
	case it <= 150:
		return "it26-150"
	case it <= 500:
		return "it151-500"
	default:
		return "it>500"
	}
}
