package authserver

import (
	"context"
	"fmt"
	"net/netip"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/nsec3"
	"repro/internal/zone"
)

const (
	tInception  = 1709251200
	tExpiration = 1711843200
)

func buildZone(t *testing.T, apex string, denial zone.DenialMode) *zone.Signed {
	t.Helper()
	apexN := dnswire.MustParseName(apex)
	z := zone.New(apexN, 300)
	z.MustAdd(dnswire.RR{Name: apexN, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.SOA{
		MName: apexN.MustChild("ns"), RName: apexN.MustChild("hostmaster"),
		Serial: 1, Refresh: 1, Retry: 1, Expire: 1, Minimum: 300,
	}})
	z.MustAdd(dnswire.RR{Name: apexN, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.NS{Host: apexN.MustChild("ns")}})
	z.MustAdd(dnswire.RR{Name: apexN.MustChild("ns"), Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.53")}})
	z.MustAdd(dnswire.RR{Name: apexN.MustChild("www"), Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}})
	s, err := z.Sign(zone.SignConfig{
		Denial: denial, NSEC3: nsec3.Params{Iterations: 3},
		Inception: tInception, Expiration: tExpiration,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func query(t *testing.T, s *Server, name string, qt dnswire.Type, do bool) *dnswire.Message {
	t.Helper()
	q := dnswire.NewQuery(1, dnswire.MustParseName(name), qt, do)
	resp := s.Handle(context.Background(), netip.MustParseAddrPort("10.0.0.1:5353"), q)
	if resp == nil {
		t.Fatal("nil response")
	}
	return resp
}

func TestHandlePositive(t *testing.T) {
	s := New()
	s.AddZone(buildZone(t, "example.com", zone.DenialNSEC3))
	resp := query(t, s, "www.example.com", dnswire.TypeA, true)
	if resp.Header.RCode != dnswire.RCodeNoError || !resp.Header.Authoritative {
		t.Fatalf("rcode=%s aa=%v", resp.Header.RCode, resp.Header.Authoritative)
	}
	var hasA, hasSig bool
	for _, rr := range resp.Answers {
		switch rr.Type() {
		case dnswire.TypeA:
			hasA = true
		case dnswire.TypeRRSIG:
			hasSig = true
		}
	}
	if !hasA || !hasSig {
		t.Fatalf("answers = %v", resp.Answers)
	}
	// Same query without DO: no DNSSEC records anywhere.
	resp = query(t, s, "www.example.com", dnswire.TypeA, false)
	for _, rr := range append(resp.Answers, resp.Authority...) {
		switch rr.Type() {
		case dnswire.TypeRRSIG, dnswire.TypeNSEC3, dnswire.TypeNSEC:
			t.Fatalf("DNSSEC record %s without DO", rr.Type())
		}
	}
}

func TestHandleNXDOMAINWithProof(t *testing.T) {
	s := New()
	s.AddZone(buildZone(t, "example.com", zone.DenialNSEC3))
	resp := query(t, s, "missing.example.com", dnswire.TypeA, true)
	if resp.Header.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("rcode = %s", resp.Header.RCode)
	}
	set, err := nsec3.ExtractResponseSet(resp.Authority)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := set.VerifyNXDOMAIN(dnswire.MustParseName("missing.example.com")); err != nil {
		t.Fatal(err)
	}
}

func TestHandleRefusedOutOfZone(t *testing.T) {
	s := New()
	s.AddZone(buildZone(t, "example.com", zone.DenialNSEC3))
	resp := query(t, s, "www.other.net", dnswire.TypeA, true)
	if resp.Header.RCode != dnswire.RCodeRefused {
		t.Fatalf("rcode = %s", resp.Header.RCode)
	}
}

func TestHandleNotImp(t *testing.T) {
	s := New()
	s.AddZone(buildZone(t, "example.com", zone.DenialNSEC3))
	q := dnswire.NewQuery(1, dnswire.MustParseName("www.example.com"), dnswire.TypeA, false)
	q.Header.Opcode = dnswire.OpcodeUpdate
	resp := s.Handle(context.Background(), netip.MustParseAddrPort("10.0.0.1:1"), q)
	if resp.Header.RCode != dnswire.RCodeNotImp {
		t.Fatalf("rcode = %s", resp.Header.RCode)
	}
	// Non-IN class refused.
	q2 := dnswire.NewQuery(2, dnswire.MustParseName("www.example.com"), dnswire.TypeA, false)
	q2.Questions[0].Class = dnswire.ClassANY
	resp = s.Handle(context.Background(), netip.MustParseAddrPort("10.0.0.1:1"), q2)
	if resp.Header.RCode != dnswire.RCodeRefused {
		t.Fatalf("rcode = %s", resp.Header.RCode)
	}
}

func TestZoneForPicksDeepest(t *testing.T) {
	s := New()
	parent := buildZone(t, "example.com", zone.DenialNSEC3)
	child := buildZone(t, "sub.example.com", zone.DenialNSEC3)
	s.AddZone(parent)
	s.AddZone(child)
	sz, ok := s.ZoneFor(context.Background(), dnswire.MustParseName("www.sub.example.com"))
	if !ok || sz.Zone.Apex != "sub.example.com." {
		t.Fatalf("ZoneFor = %v, %v", sz, ok)
	}
	if got := s.Zones(); len(got) != 2 {
		t.Fatalf("Zones = %v", got)
	}
}

func TestDSQueryRoutedToParentZone(t *testing.T) {
	// When one server hosts both parent and child, a DS query for the
	// child apex must be answered from the parent.
	apexN := dnswire.MustParseName("example.com")
	z := zone.New(apexN, 300)
	z.MustAdd(dnswire.RR{Name: apexN, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.SOA{
		MName: apexN.MustChild("ns"), RName: apexN.MustChild("hostmaster"),
		Serial: 1, Refresh: 1, Retry: 1, Expire: 1, Minimum: 300,
	}})
	z.MustAdd(dnswire.RR{Name: apexN, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.NS{Host: apexN.MustChild("ns")}})
	z.MustAdd(dnswire.RR{Name: apexN.MustChild("ns"), Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.53")}})
	// Delegation with DS for the child.
	sub := dnswire.MustParseName("sub.example.com")
	z.MustAdd(dnswire.RR{Name: sub, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.NS{Host: sub.MustChild("ns")}})
	z.MustAdd(dnswire.RR{Name: sub.MustChild("ns"), Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.54")}})
	z.MustAdd(dnswire.RR{Name: sub, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.DS{
		KeyTag: 1, Algorithm: dnswire.AlgECDSAP256SHA256,
		DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32),
	}})
	parent, err := z.Sign(zone.SignConfig{Denial: zone.DenialNSEC3, Inception: tInception, Expiration: tExpiration})
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	s.AddZone(parent)
	s.AddZone(buildZone(t, "sub.example.com", zone.DenialNSEC3))
	resp := query(t, s, "sub.example.com", dnswire.TypeDS, true)
	if resp.Header.RCode != dnswire.RCodeNoError || len(resp.Answers) == 0 {
		t.Fatalf("DS query: rcode=%s answers=%d", resp.Header.RCode, len(resp.Answers))
	}
	if resp.Answers[0].Type() != dnswire.TypeDS {
		t.Fatalf("first answer %s", resp.Answers[0].Type())
	}
}

func TestQueryLog(t *testing.T) {
	s := New()
	s.AddZone(buildZone(t, "example.com", zone.DenialNSEC3))
	s.Log = NewQueryLog(3)
	for i := 0; i < 5; i++ {
		from := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}), 1000)
		q := dnswire.NewQuery(uint16(i), dnswire.MustParseName("www.example.com"), dnswire.TypeA, false)
		s.Handle(context.Background(), from, q)
	}
	entries := s.Log.Entries()
	if len(entries) != 3 {
		t.Fatalf("log kept %d entries, want 3 (bounded)", len(entries))
	}
	// The newest entries survive.
	if entries[2].From.Addr().As4()[3] != 4 {
		t.Fatalf("last entry from %s", entries[2].From)
	}
	srcs := s.Log.SourcesFor(func(n dnswire.Name) bool { return n == "www.example.com." })
	if len(srcs) != 3 {
		t.Fatalf("SourcesFor = %v", srcs)
	}
}

// TestQueryLogRing fills a 3-entry log with 7 records: the ring keeps
// the last 3 oldest first, and SourcesFor searches only what it kept.
func TestQueryLogRing(t *testing.T) {
	l := NewQueryLog(3)
	src := func(i int) netip.AddrPort {
		return netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}), 53)
	}
	name := func(i int) dnswire.Name { return dnswire.MustParseName(fmt.Sprintf("q%d.example", i)) }
	for i := 0; i < 7; i++ {
		l.Record(src(i), name(i))
	}
	entries := l.Entries()
	if len(entries) != 3 {
		t.Fatalf("log kept %d entries, want 3", len(entries))
	}
	for k, e := range entries {
		if want := 4 + k; e.From != src(want) || e.QName != name(want) {
			t.Fatalf("entry %d = %v, want record %d", k, e, want)
		}
	}
	all := l.SourcesFor(func(dnswire.Name) bool { return true })
	if want := []netip.AddrPort{src(4), src(5), src(6)}; !reflect.DeepEqual(all, want) {
		t.Fatalf("SourcesFor(all) = %v, want %v (oldest first)", all, want)
	}
	for _, evicted := range []int{0, 3} {
		if got := l.SourcesFor(func(n dnswire.Name) bool { return n == name(evicted) }); len(got) != 0 {
			t.Fatalf("SourcesFor sees evicted record %d: %v", evicted, got)
		}
	}
}

// TestQueryLogConcurrentRecord hammers one small ring from several
// goroutines (run under -race): the bound holds and every retained
// entry is one that was recorded.
func TestQueryLogConcurrentRecord(t *testing.T) {
	const workers, per, max = 8, 500, 64
	l := NewQueryLog(max)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			from := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 1, byte(w)}), 53)
			for i := 0; i < per; i++ {
				l.Record(from, "concurrent.example.")
				if i%50 == 0 {
					_ = l.Entries()
				}
			}
		}(w)
	}
	wg.Wait()
	entries := l.Entries()
	if len(entries) != max {
		t.Fatalf("log holds %d entries, want %d", len(entries), max)
	}
	for _, e := range entries {
		if e.QName != "concurrent.example." || e.From.Addr().As4()[2] != 1 {
			t.Fatalf("unexpected entry %v", e)
		}
	}
}
