package dnssec

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"repro/internal/dnswire"
	"repro/internal/obs"
)

// This file is the signature-verification memo behind Verify. A §4.2
// study deploys hundreds of fresh validators that all verify the same
// few hundred testbed RRSIGs; the memo lets the process do each
// distinct public-key operation once. It is content-keyed, so it can
// only ever return the result the same public-key operation would
// return: the key covers every input of that operation.

// verifyMemoMax bounds the memo. The §4.2 study verifies ~400 distinct
// (RRset, RRSIG, DNSKEY) triples and the §4.1 survey ~150, so a few
// thousand entries hold every live triple while a flood of distinct
// signatures only cycles the oldest out.
const verifyMemoMax = 4096

// sigMemo is a bounded, process-wide map from memoKey to the outcome of
// the cryptographic check (nil for a valid signature). Eviction is
// first-in first-out over a ring of keys.
type sigMemo struct {
	mu      sync.Mutex
	results map[[sha256.Size]byte]error
	ring    [][sha256.Size]byte
	next    int // ring slot the next insertion evicts once full

	hits, misses atomic.Uint64
}

var verifyMemo = &sigMemo{results: make(map[[sha256.Size]byte]error)}

// memoKey hashes the inputs of the public-key operation: the digest of
// the signed data, the algorithm, the length-prefixed public key, and
// the signature. The length prefix keeps (key, signature) boundaries
// unambiguous. The scratch buffer covers P-256 and Ed25519 keys and
// 2048-bit RSA; longer inputs spill to the heap.
func memoKey(digest *[sha256.Size]byte, key dnswire.DNSKEY, sig []byte) [sha256.Size]byte {
	var scratch [sha256.Size + 3 + 2*264]byte
	b := append(scratch[:0], digest[:]...)
	b = append(b, byte(key.Algorithm), byte(len(key.PublicKey)>>8), byte(len(key.PublicKey)))
	b = append(b, key.PublicKey...)
	b = append(b, sig...)
	return sha256.Sum256(b)
}

// lookup returns the memoized outcome for k, counting a hit or a miss.
func (m *sigMemo) lookup(k [sha256.Size]byte) (ok bool, err error) {
	m.mu.Lock()
	err, ok = m.results[k]
	m.mu.Unlock()
	if ok {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	return ok, err
}

// store records the outcome for k, evicting the oldest entry when the
// memo is full.
func (m *sigMemo) store(k [sha256.Size]byte, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.results[k]; ok {
		return // a concurrent miss on the same key stored it first
	}
	if len(m.ring) < verifyMemoMax {
		m.ring = append(m.ring, k)
	} else {
		delete(m.results, m.ring[m.next])
		m.ring[m.next] = k
		m.next = (m.next + 1) % verifyMemoMax
	}
	m.results[k] = err
}

// InstrumentMemo exposes the verification memo's hit and miss counts
// on reg. They are process-wide and only describe the memo's own
// effectiveness; the modeled verification work is counted elsewhere.
func InstrumentMemo(reg *obs.Registry) {
	reg.CounterFunc("dnssec_verify_memo_hits_total",
		"signature verifications answered from the process-wide memo", verifyMemo.hits.Load)
	reg.CounterFunc("dnssec_verify_memo_misses_total",
		"signature verifications that ran the public-key operation", verifyMemo.misses.Load)
}
