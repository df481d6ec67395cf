package dnssec_test

import (
	"encoding/binary"
	"errors"
	"net/netip"
	"testing"

	"repro/internal/dnssec"
	"repro/internal/dnswire"
)

const (
	memoInception  = 1709251200 // 2024-03-01
	memoExpiration = 1711843200 // 2024-03-31
	memoNow        = 1710000000 // inside the window
)

var memoZone = dnswire.MustParseName("example.com")

func memoKey(t testing.TB) *dnssec.KeyPair {
	t.Helper()
	k, err := dnssec.GenerateKey(dnswire.AlgECDSAP256SHA256, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func memoSet(t testing.TB, owner string, addrs ...string) dnssec.RRset {
	t.Helper()
	var rrs []dnswire.RR
	for _, a := range addrs {
		rrs = append(rrs, dnswire.RR{Name: dnswire.MustParseName(owner), Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.A{Addr: netip.MustParseAddr(a)}})
	}
	set, err := dnssec.NewRRset(rrs)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func memoSign(t testing.TB, set dnssec.RRset, key *dnssec.KeyPair) dnswire.RRSIG {
	t.Helper()
	sig, err := dnssec.Sign(set, key, memoZone, memoInception, memoExpiration)
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

// tagTwins returns two distinct zone-signing keys sharing a key tag:
// the structural checks cannot tell them apart, only the signature can.
func tagTwins(t *testing.T) (a, b *dnssec.KeyPair) {
	t.Helper()
	byTag := make(map[uint16]*dnssec.KeyPair)
	for i := 0; i < 20000; i++ {
		k := memoKey(t)
		if twin, ok := byTag[k.Tag()]; ok {
			return twin, k
		}
		byTag[k.Tag()] = k
	}
	t.Fatal("no key-tag collision among 20000 keys")
	return nil, nil
}

// TestVerifyMemoRejectsMutations caches a valid verification, then
// checks that no mutation of its inputs is answered from that entry:
// each must fail through the memo exactly as it fails without it.
func TestVerifyMemoRejectsMutations(t *testing.T) {
	key, twin := tagTwins(t)
	set := memoSet(t, "www.example.com", "192.0.2.1", "192.0.2.2")
	sig := memoSign(t, set, key)
	for i := 0; i < 2; i++ { // miss, then hit
		if err := dnssec.VerifyWithRRSIG(set, sig, key.DNSKEY(), memoZone, memoNow); err != nil {
			t.Fatalf("valid signature, call %d: %v", i, err)
		}
	}

	flipped := sig
	flipped.Signature = append([]byte(nil), sig.Signature...)
	flipped.Signature[17] ^= 0x01
	ttl := sig
	ttl.OrigTTL++
	cases := []struct {
		name string
		set  dnssec.RRset
		sig  dnswire.RRSIG
		key  dnswire.DNSKEY
	}{
		{"mutated RDATA", memoSet(t, "www.example.com", "192.0.2.1", "192.0.2.3"), sig, key.DNSKEY()},
		{"mutated owner", memoSet(t, "mail.example.com", "192.0.2.1", "192.0.2.2"), sig, key.DNSKEY()},
		{"different OrigTTL", set, ttl, key.DNSKEY()},
		{"different key, same tag", set, sig, twin.DNSKEY()},
		{"flipped signature byte", set, flipped, key.DNSKEY()},
	}
	for _, c := range cases {
		if err := dnssec.VerifyWithRRSIG(c.set, c.sig, c.key, memoZone, memoNow); err == nil {
			t.Errorf("%s: verified through the memo", c.name)
		}
		if err := dnssec.Verify(c.set, c.sig, c.key); err == nil {
			t.Errorf("%s: Verify accepted it", c.name)
		}
		if err := dnssec.VerifyUncached(c.set, c.sig, c.key); err == nil {
			t.Errorf("%s: accepted without the memo too — the case tests nothing", c.name)
		}
	}
}

// TestVerifyMemoCachesFailure checks that a failed verification is
// memoized as a failure: the second call is a hit with the same error.
func TestVerifyMemoCachesFailure(t *testing.T) {
	key := memoKey(t)
	set := memoSet(t, "fail.example.com", "192.0.2.9")
	sig := memoSign(t, set, key)
	sig.Signature[0] ^= 0xFF
	first := dnssec.Verify(set, sig, key.DNSKEY())
	if !errors.Is(first, dnssec.ErrBadSignature) {
		t.Fatalf("tampered signature: %v, want ErrBadSignature", first)
	}
	hits, _ := dnssec.VerifyMemoStats()
	if err := dnssec.Verify(set, sig, key.DNSKEY()); err != first {
		t.Fatalf("second call: %v, want the memoized %v", err, first)
	}
	if after, _ := dnssec.VerifyMemoStats(); after != hits+1 {
		t.Fatalf("memo hits %d -> %d, want one hit", hits, after)
	}
}

// TestVerifyWithRRSIGTemporalDespiteMemo checks that the validity
// window is enforced on every call, even when the signature's crypto
// is memoized as valid.
func TestVerifyWithRRSIGTemporalDespiteMemo(t *testing.T) {
	key := memoKey(t)
	set := memoSet(t, "window.example.com", "192.0.2.7")
	sig := memoSign(t, set, key)
	if err := dnssec.VerifyWithRRSIG(set, sig, key.DNSKEY(), memoZone, memoNow); err != nil {
		t.Fatalf("inside the window: %v", err)
	}
	if err := dnssec.VerifyWithRRSIG(set, sig, key.DNSKEY(), memoZone, memoExpiration+1); !errors.Is(err, dnssec.ErrSigExpired) {
		t.Fatalf("after expiration: %v, want ErrSigExpired", err)
	}
	if err := dnssec.VerifyWithRRSIG(set, sig, key.DNSKEY(), memoZone, memoInception-1); !errors.Is(err, dnssec.ErrSigNotYetValid) {
		t.Fatalf("before inception: %v, want ErrSigNotYetValid", err)
	}
	if err := dnssec.Verify(set, sig, key.DNSKEY()); err != nil {
		t.Fatalf("crypto alone: %v", err)
	}
}

// TestVerifyMemoBounded floods the memo with 100k distinct signatures:
// it never holds more than its bound, and verification stays correct.
func TestVerifyMemoBounded(t *testing.T) {
	key := memoKey(t)
	set := memoSet(t, "flood.example.com", "192.0.2.5")
	sig := memoSign(t, set, key)
	bogus := sig
	bogus.Signature = make([]byte, 64)
	for i := 0; i < 100000; i++ {
		binary.BigEndian.PutUint32(bogus.Signature, uint32(i))
		if err := dnssec.Verify(set, bogus, key.DNSKEY()); err == nil {
			t.Fatalf("bogus signature %d verified", i)
		}
		if i%10000 == 0 && dnssec.VerifyMemoLen() > dnssec.VerifyMemoMax {
			t.Fatalf("memo holds %d entries after %d signatures, bound %d", dnssec.VerifyMemoLen(), i, dnssec.VerifyMemoMax)
		}
	}
	if n := dnssec.VerifyMemoLen(); n > dnssec.VerifyMemoMax {
		t.Fatalf("memo holds %d entries, bound %d", n, dnssec.VerifyMemoMax)
	}
	if err := dnssec.Verify(set, sig, key.DNSKEY()); err != nil {
		t.Fatalf("valid signature after the flood: %v", err)
	}
}

// BenchmarkDNSSECVerify prices one ECDSA P-256 RRSIG verification.
// cold is the full cost every validator pays (canonical form, digest,
// public-key operation) with the memo bypassed; memoized is the same
// call answered from the process-wide memo.
func BenchmarkDNSSECVerify(b *testing.B) {
	key := memoKey(b)
	set := memoSet(b, "bench.example.com", "192.0.2.1", "192.0.2.2")
	sig := memoSign(b, set, key)
	dnskey := key.DNSKEY()
	for _, c := range []struct {
		name   string
		verify func(dnssec.RRset, dnswire.RRSIG, dnswire.DNSKEY) error
	}{
		{"cold", dnssec.VerifyUncached},
		{"memoized", dnssec.Verify},
	} {
		b.Run(c.name, func(b *testing.B) {
			if err := c.verify(set, sig, dnskey); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.verify(set, sig, dnskey); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
