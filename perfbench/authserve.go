package main

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/testbed"
)

// authRounds is the number of closed-loop rounds in one authserve job.
// 140 rounds × 459 queries stay below the testbed's 65,536-entry query
// log, so the job measures per-query serving cost rather than the log's
// O(n) eviction; resolver-study is sized past the log and measures
// that. (At 160 rounds the eviction took about 70% of the job's wall
// time.)
const authRounds = 140

// Server addresses core.BuildTestbedWorld gives the §4.2 world.
var (
	rootServer    = netsim.Addr4(198, 41, 0, 4)
	comServer     = netsim.Addr4(192, 5, 6, 30)
	testbedServer = netsim.Addr4(203, 0, 113, 10)
)

// roundQuery is one query of an authserve round.
type roundQuery struct {
	server netip.AddrPort
	qtype  dnswire.Type
	name   dnswire.Name
	// probe is the testbed subdomain an A query probes; its name
	// carries the round's unique label.
	probe *testbed.Subdomain
	// referral: the server is not authoritative for the name and must
	// answer with a delegation.
	referral bool
}

// roundTemplate is the authoritative traffic of one fresh validating
// resolver probing the 50 §4.2 names, as the traced resolver-study run
// records it (README.md, "Verified traffic"): every lookup starts at
// the root and follows referrals down, for the probe name itself and
// for the DNSKEY and DS sets validation needs — 459 queries.
func roundTemplate() []roundQuery {
	var out []roundQuery
	// walk sends one lookup down the delegation chain: a referral from
	// every server above the one authoritative for name.
	walk := func(qtype dnswire.Type, name dnswire.Name, probe *testbed.Subdomain, chain ...netip.AddrPort) {
		for i, srv := range chain {
			out = append(out, roundQuery{server: srv, qtype: qtype, name: name, probe: probe, referral: i < len(chain)-1})
		}
	}
	domain := dnswire.MustParseName(testbed.TestbedDomain)
	com := dnswire.MustParseName("com")
	walk(dnswire.TypeDNSKEY, dnswire.Root, nil, rootServer)
	walk(dnswire.TypeDS, com, nil, rootServer)
	walk(dnswire.TypeDNSKEY, com, nil, rootServer, comServer)
	walk(dnswire.TypeDS, domain, nil, rootServer, comServer)
	walk(dnswire.TypeDNSKEY, domain, nil, rootServer, comServer, testbedServer)
	for _, sub := range testbed.Subdomains() {
		walk(dnswire.TypeA, sub.Apex(), &sub, rootServer, comServer, testbedServer)
		walk(dnswire.TypeDS, sub.Apex(), nil, rootServer, comServer, testbedServer)
		walk(dnswire.TypeDNSKEY, sub.Apex(), nil, rootServer, comServer, testbedServer)
	}
	return out
}

// buildAuthWorld builds the §4.2 world with every zone signed eagerly.
func buildAuthWorld(seed uint64) (*testbed.Hierarchy, error) {
	h, err := core.BuildTestbedWorld(seed)
	if err != nil {
		return nil, err
	}
	for _, a := range []netip.AddrPort{rootServer, comServer, testbedServer} {
		if _, ok := h.Servers[a]; !ok {
			return nil, fmt.Errorf("testbed world has no server at %s", a)
		}
	}
	return h, nil
}

func setupAuthserve(ctx context.Context, seed uint64) (func(context.Context) (*jobOut, error), error) {
	h, err := buildAuthWorld(seed)
	if err != nil {
		return nil, err
	}
	tmpl := roundTemplate()
	return func(ctx context.Context) (*jobOut, error) {
		return serveRounds(ctx, h.Net, tmpl, seed, authRounds)
	}, nil
}

// serveRounds drives rounds through ex in a closed loop: GOMAXPROCS
// clients, each sending its next query only after the previous answer.
// Every answer is checked; per-query latency is recorded.
func serveRounds(ctx context.Context, ex netsim.Exchanger, tmpl []roundQuery, seed uint64, rounds int) (*jobOut, error) {
	clients := runtime.GOMAXPROCS(0)
	var next atomic.Int64
	lats := make([][]time.Duration, clients)
	fails := make([]int, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat := make([]time.Duration, 0, rounds*len(tmpl)/clients+len(tmpl))
			for {
				r := int(next.Add(1) - 1)
				if r >= rounds {
					break
				}
				unique := fmt.Sprintf("r%d-%d", seed, r)
				for i := range tmpl {
					d, ok, err := exchangeChecked(ctx, ex, &tmpl[i], unique, uint16(i))
					if err != nil {
						errs[c] = err
						return
					}
					lat = append(lat, d)
					if !ok {
						fails[c]++
					}
				}
			}
			lats[c] = lat
		}()
	}
	wg.Wait()
	out := &jobOut{}
	for c := range lats {
		if errs[c] != nil {
			return nil, errs[c]
		}
		out.lat = append(out.lat, lats[c]...)
		out.failed += fails[c]
	}
	out.ops = len(out.lat)
	return out, nil
}

// exchangeChecked sends one round query and checks the answer:
// referrals must delegate; probe RCODEs must match
// testbed.Subdomain.WantNXDOMAIN, and NXDOMAIN answers must prove the
// denial with NSEC3 at the zone's iteration count; DNSKEY and DS
// lookups must answer NOERROR with data.
//
//repro:nondeterministic per-query latency is the measurement itself
func exchangeChecked(ctx context.Context, ex netsim.Exchanger, q *roundQuery, unique string, id uint16) (time.Duration, bool, error) {
	name := q.name
	if q.probe != nil {
		name = q.probe.QName(unique)
	}
	msg := dnswire.NewQuery(id, name, q.qtype, true)
	t0 := time.Now()
	resp, err := ex.Exchange(ctx, q.server, msg)
	d := time.Since(t0)
	if err != nil {
		return d, false, nil
	}
	return d, answerOK(q, resp), nil
}

func answerOK(q *roundQuery, resp *dnswire.Message) bool {
	rc := resp.ExtendedRCode()
	if q.referral {
		if rc != dnswire.RCodeNoError || len(resp.Answers) > 0 {
			return false
		}
		for _, rr := range resp.Authority {
			if rr.Type() == dnswire.TypeNS {
				return true
			}
		}
		return false
	}
	if q.probe == nil {
		if rc != dnswire.RCodeNoError {
			return false
		}
		for _, rr := range resp.Answers {
			if rr.Type() == q.qtype {
				return true
			}
		}
		return false
	}
	if !q.probe.WantNXDOMAIN {
		return rc == dnswire.RCodeNoError && len(resp.Answers) > 0
	}
	if rc != dnswire.RCodeNXDomain {
		return false
	}
	for _, rr := range resp.Authority {
		if n3, ok := rr.Data.(dnswire.NSEC3); ok && n3.Iterations == q.probe.Iterations {
			return true
		}
	}
	return false
}

// allocsPerQuery calls the authoritative servers' Handle directly, on
// this goroutine, for one round of pre-parsed queries and returns the
// heap allocations per query.
func allocsPerQuery(ctx context.Context, h *testbed.Hierarchy, tmpl []roundQuery, rounds int) (float64, error) {
	type call struct {
		srv interface {
			Handle(context.Context, netip.AddrPort, *dnswire.Message) *dnswire.Message
		}
		q *dnswire.Message
	}
	var calls []call
	for r := 0; r < rounds; r++ {
		for i := range tmpl {
			q := &tmpl[i]
			name := q.name
			if q.probe != nil {
				name = q.probe.QName(fmt.Sprintf("alloc-%d", r))
			}
			wire, err := dnswire.NewQuery(uint16(i), name, q.qtype, true).Pack()
			if err != nil {
				return 0, err
			}
			parsed, err := dnswire.Unpack(wire)
			if err != nil {
				return 0, err
			}
			calls = append(calls, call{srv: h.Servers[q.server], q: parsed})
		}
	}
	from := netip.MustParseAddrPort("10.0.0.1:53000")
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, c := range calls {
		c.srv.Handle(ctx, from, c.q)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(len(calls)), nil
}
