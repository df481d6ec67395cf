// Package nsec3 implements RFC 5155 hashed authenticated denial of
// existence: the iterated salted SHA-1 owner-name hash, Base32hex owner
// labels, NSEC3 chain construction over a zone's names, and synthesis
// and verification of the three proof shapes (NXDOMAIN via closest
// encloser, NODATA, and wildcard expansion).
//
// The per-zone parameters — hash algorithm, additional iterations, and
// salt — are exactly the knobs whose real-world settings the paper
// "Zeros Are Heroes" measures, and which RFC 9276 constrains (0
// additional iterations, empty salt).
package nsec3

import (
	"bytes"
	"crypto/sha1"
	"encoding/base32"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/dnswire"
)

// HashLen is the SHA-1 output length: every NSEC3 hash field is 20 octets.
const HashLen = sha1.Size

// MaxSaltLen is the wire-format limit on salt length (one-octet length).
const MaxSaltLen = 255

// RFC5155MaxIterations is the iteration cap RFC 5155 §10.3 imposed for
// the largest key sizes; the it-2501 testbed subdomain exceeds it.
const RFC5155MaxIterations = 2500

// Params are the per-zone NSEC3 hash parameters (RFC 5155 §3.1.1–3.1.5,
// §4.1). Iterations counts *additional* applications of the hash beyond
// the first, matching the protocol field and the paper's terminology.
type Params struct {
	Alg        dnswire.NSEC3HashAlg
	Iterations uint16
	Salt       []byte
}

// RFC9276Compliant reports whether the parameters satisfy the two
// mandatory knob settings of RFC 9276: zero additional iterations
// (Item 2, MUST) and an empty salt (Item 3, SHOULD NOT use a salt).
func (p Params) RFC9276Compliant() bool {
	return p.Iterations == 0 && len(p.Salt) == 0
}

// String renders the parameters like the NSEC3PARAM presentation form.
func (p Params) String() string {
	salt := "-"
	if len(p.Salt) > 0 {
		salt = fmt.Sprintf("%X", p.Salt)
	}
	return fmt.Sprintf("%d 0 %d %s", uint8(p.Alg), p.Iterations, salt)
}

// ErrUnknownAlg is returned for any hash algorithm other than SHA-1,
// the only value IANA ever assigned.
var ErrUnknownAlg = errors.New("nsec3: unknown hash algorithm")

// Hash computes the iterated salted hash of name (RFC 5155 §5):
//
//	IH(salt, x, 0) = H(x || salt)
//	IH(salt, x, k) = H(IH(salt, x, k-1) || salt)
//
// applied to the canonical (lowercase, uncompressed) wire form of name,
// with k = p.Iterations. The per-iteration rehash over a 20-octet
// digest plus salt is exactly the CPU cost CVE-2023-50868 weaponizes.
//
//repro:allocok convenience wrapper: the one make is the returned hash; zero-allocation callers use AppendHash with a reused dst
func Hash(name dnswire.Name, p Params) ([]byte, error) {
	out := make([]byte, 0, HashLen)
	return AppendHash(out, name, p)
}

// AppendHash appends the 20-octet iterated salted hash of name to dst
// and returns the extended slice. All intermediate state lives in a
// stack scratch buffer, so with a dst of sufficient capacity the call
// performs zero heap allocations — this is the form the denial-proof
// serving path uses per query.
//
//repro:hotpath every NSEC3 denial proof hashes the query name; negative answers at line rate must not allocate per hash
func AppendHash(dst []byte, name dnswire.Name, p Params) ([]byte, error) {
	if p.Alg != dnswire.NSEC3HashSHA1 {
		return nil, ErrUnknownAlg
	}
	if len(p.Salt) > MaxSaltLen {
		// A salt beyond the one-octet wire limit cannot appear in a
		// valid NSEC3PARAM; accept it anyway (robustness principle) on
		// a heap-allocating cold path.
		return appendHashBigSalt(dst, name, p)
	}
	// Big enough for wire-form name + salt (first round) and for
	// digest + salt (every additional iteration).
	var scratch [dnswire.MaxNameWireLen + MaxSaltLen]byte
	buf := scratch[:0]
	buf = name.AppendWire(buf)
	buf = append(buf, p.Salt...)
	digest := sha1.Sum(buf)
	for i := uint16(0); i < p.Iterations; i++ {
		buf = append(buf[:0], digest[:]...)
		buf = append(buf, p.Salt...)
		digest = sha1.Sum(buf)
	}
	return append(dst, digest[:]...), nil
}

// appendHashBigSalt is AppendHash for salts too long for the stack
// scratch buffer.
//
//repro:allocok oversized salts cannot occur in a valid NSEC3PARAM; this robustness path is never on the serving side
func appendHashBigSalt(dst []byte, name dnswire.Name, p Params) ([]byte, error) {
	buf := make([]byte, 0, name.WireLen()+len(p.Salt))
	buf = name.AppendWire(buf)
	buf = append(buf, p.Salt...)
	digest := sha1.Sum(buf)
	iter := make([]byte, 0, HashLen+len(p.Salt))
	for i := uint16(0); i < p.Iterations; i++ {
		iter = append(iter[:0], digest[:]...)
		iter = append(iter, p.Salt...)
		digest = sha1.Sum(iter)
	}
	return append(dst, digest[:]...), nil
}

// base32Hex is unpadded Base32 with the "extended hex" alphabet
// (RFC 5155 §1.3), the encoding of NSEC3 owner labels.
var base32Hex = base32.HexEncoding.WithPadding(base32.NoPadding)

// EncodeHash renders a raw hash as the lowercase Base32hex owner label.
func EncodeHash(h []byte) string {
	return strings.ToLower(base32Hex.EncodeToString(h))
}

// DecodeHash parses a Base32hex owner label back to the raw hash.
func DecodeHash(label string) ([]byte, error) {
	return base32Hex.DecodeString(strings.ToUpper(label))
}

// OwnerName returns the NSEC3 owner name for the hash of name in zone:
// base32hex(hash) prepended to the zone apex.
func OwnerName(name, zone dnswire.Name, p Params) (dnswire.Name, error) {
	h, err := Hash(name, p)
	if err != nil {
		return "", err
	}
	return zone.Child(EncodeHash(h))
}

// HashFromOwner extracts the raw hash encoded in an NSEC3 RR's owner
// name (its leftmost label).
func HashFromOwner(owner dnswire.Name) ([]byte, error) {
	labels := owner.Labels()
	if len(labels) == 0 {
		return nil, fmt.Errorf("nsec3: owner name %q has no hash label", owner)
	}
	h, err := DecodeHash(labels[0])
	if err != nil {
		return nil, fmt.Errorf("nsec3: owner label %q: %w", labels[0], err)
	}
	if len(h) != HashLen {
		return nil, fmt.Errorf("nsec3: owner hash is %d octets, want %d", len(h), HashLen)
	}
	return h, nil
}

// Covers reports whether the circular span (ownerHash, nextHash)
// strictly contains h (RFC 5155 §3.1.7 semantics). The last NSEC3 in a
// chain wraps: its next hash is the first owner hash, and its span
// covers everything greater than the owner or smaller than the next.
func Covers(ownerHash, nextHash, h []byte) bool {
	oc := bytes.Compare(ownerHash, h)
	nc := bytes.Compare(h, nextHash)
	if bytes.Compare(ownerHash, nextHash) < 0 {
		return oc < 0 && nc < 0
	}
	// Wrapped span (or single-record chain where owner == next,
	// which covers the whole space except the owner itself).
	return oc < 0 || nc < 0
}

// Record pairs a hashed owner with its NSEC3 payload inside one zone's
// chain.
type Record struct {
	OwnerHash []byte // 20 raw octets decoded from the owner label
	RR        dnswire.NSEC3
}

// Chain is a complete NSEC3 chain for one zone, sorted by owner hash.
// It can answer match/cover queries and synthesize denial proofs. A
// chain must not be modified once it serves proofs: ProveNXDOMAIN
// memoizes what it derives from Zone, Params and Records.
type Chain struct {
	Zone    dnswire.Name
	Params  Params
	Records []Record // sorted ascending by OwnerHash

	// lastEncloser memoizes the most recent closest encloser's proof
	// records (proof.go).
	lastEncloser atomic.Pointer[encloserProof]
}

// ErrEmptyChain is returned when proof synthesis is attempted on a
// chain with no records.
var ErrEmptyChain = errors.New("nsec3: empty chain")

// BuildChain constructs the NSEC3 chain for the given original owner
// names and their type bitmaps. names maps each original name in the
// zone (apex, delegations, leaf owners, empty non-terminals) to the
// types present at it. optOut sets the Opt-Out flag on every record,
// and ttl is the NSEC3 TTL (conventionally the SOA minimum).
//
// Hashing each owner once and sorting is the memoized strategy
// benchmarked against naive per-proof hashing in the ablation benches.
func BuildChain(zone dnswire.Name, p Params, names map[dnswire.Name]dnswire.TypeBitmap, optOut bool, ttl uint32) (*Chain, error) {
	if len(names) == 0 {
		return nil, ErrEmptyChain
	}
	c := &Chain{Zone: zone, Params: p, Records: make([]Record, 0, len(names))}
	var flags uint8
	if optOut {
		flags |= dnswire.NSEC3FlagOptOut
	}
	for name, types := range names {
		h, err := Hash(name, p)
		if err != nil {
			return nil, err
		}
		c.Records = append(c.Records, Record{
			OwnerHash: h,
			RR: dnswire.NSEC3{
				HashAlg:    p.Alg,
				Flags:      flags,
				Iterations: p.Iterations,
				Salt:       append([]byte(nil), p.Salt...),
				Types:      types,
			},
		})
	}
	sort.Slice(c.Records, func(i, j int) bool {
		return bytes.Compare(c.Records[i].OwnerHash, c.Records[j].OwnerHash) < 0
	})
	// Reject hash collisions between distinct owners: the chain would
	// be ambiguous (astronomically unlikely with SHA-1, but data from
	// a parser could be adversarial).
	for i := 1; i < len(c.Records); i++ {
		if bytes.Equal(c.Records[i-1].OwnerHash, c.Records[i].OwnerHash) {
			return nil, fmt.Errorf("nsec3: hash collision in zone %s", zone)
		}
	}
	// Link next-hashed-owner pointers circularly.
	for i := range c.Records {
		next := c.Records[(i+1)%len(c.Records)].OwnerHash
		c.Records[i].RR.NextHashedOwner = append([]byte(nil), next...)
	}
	_ = ttl // TTL applies when materializing RRs; kept for signature clarity.
	return c, nil
}

// find returns the index of the record whose owner hash matches h
// exactly (match=true), or the index of the record whose span covers h
// (match=false).
func (c *Chain) find(h []byte) (idx int, match bool) {
	n := len(c.Records)
	i := sort.Search(n, func(i int) bool {
		return bytes.Compare(c.Records[i].OwnerHash, h) >= 0
	})
	if i < n && bytes.Equal(c.Records[i].OwnerHash, h) {
		return i, true
	}
	// Predecessor covers h; index -1 wraps to the last record.
	return (i - 1 + n) % n, false
}

// Match returns the record whose owner hash is exactly the hash of
// name, if any.
func (c *Chain) Match(name dnswire.Name) (Record, bool, error) {
	if len(c.Records) == 0 {
		return Record{}, false, ErrEmptyChain
	}
	var hb [HashLen]byte
	h, err := AppendHash(hb[:0], name, c.Params)
	if err != nil {
		return Record{}, false, err
	}
	i, ok := c.find(h)
	if !ok {
		return Record{}, false, nil
	}
	return c.Records[i], true, nil
}

// Cover returns the record whose span covers the hash of name. When the
// hash matches a record exactly there is no covering record and ok is
// false.
func (c *Chain) Cover(name dnswire.Name) (Record, bool, error) {
	if len(c.Records) == 0 {
		return Record{}, false, ErrEmptyChain
	}
	var hb [HashLen]byte
	h, err := AppendHash(hb[:0], name, c.Params)
	if err != nil {
		return Record{}, false, err
	}
	i, match := c.find(h)
	if match {
		return Record{}, false, nil
	}
	return c.Records[i], true, nil
}

// RRFor materializes the wire RR for record r with the given TTL.
func (c *Chain) RRFor(r Record, ttl uint32) dnswire.RR {
	owner, err := c.Zone.Child(EncodeHash(r.OwnerHash))
	if err != nil {
		// A base32hex label is ≤32 chars of [0-9a-v]; only a zone name
		// near the 255-octet limit can fail, which BuildChain callers
		// never construct.
		panic(err)
	}
	return dnswire.RR{Name: owner, Class: dnswire.ClassIN, TTL: ttl, Data: r.RR}
}
