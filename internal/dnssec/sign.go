package dnssec

import (
	"bytes"
	"crypto"
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
	"sort"

	"repro/internal/dnswire"
)

// RRset is a group of records sharing owner, class, and type — the unit
// DNSSEC signs.
type RRset struct {
	Name  dnswire.Name
	Class dnswire.Class
	TTL   uint32
	Datas []dnswire.RData // all of the same Type
}

// NewRRset groups rrs (which must share name/class/type) into an RRset.
func NewRRset(rrs []dnswire.RR) (RRset, error) {
	if len(rrs) == 0 {
		return RRset{}, errors.New("dnssec: empty RRset")
	}
	set := RRset{Name: rrs[0].Name, Class: rrs[0].Class, TTL: rrs[0].TTL}
	t := rrs[0].Type()
	for _, rr := range rrs {
		if rr.Name != set.Name || rr.Class != set.Class || rr.Type() != t {
			return RRset{}, fmt.Errorf("dnssec: mixed RRset (%s/%s vs %s/%s)",
				rr.Name, rr.Type(), set.Name, t)
		}
		if rr.TTL < set.TTL {
			set.TTL = rr.TTL // RFC 2181 §5.2: use the lowest TTL
		}
		set.Datas = append(set.Datas, rr.Data)
	}
	return set, nil
}

// Type returns the RRset's record type.
func (s RRset) Type() dnswire.Type { return s.Datas[0].Type() }

// RRs materializes the set back into resource records.
func (s RRset) RRs() []dnswire.RR {
	out := make([]dnswire.RR, len(s.Datas))
	for i, d := range s.Datas {
		out[i] = dnswire.RR{Name: s.Name, Class: s.Class, TTL: s.TTL, Data: d}
	}
	return out
}

// canonicalOwner returns the owner name used in canonical form: if the
// RRSIG Labels field is smaller than the owner's label count, the name
// was synthesized from a wildcard and the canonical owner is
// "*.<last Labels labels>" (RFC 4035 §5.3.2).
func canonicalOwner(owner dnswire.Name, rrsigLabels uint8) (dnswire.Name, error) {
	labels := owner.Labels()
	if int(rrsigLabels) > len(labels) {
		return "", fmt.Errorf("dnssec: RRSIG labels %d exceeds owner %s", rrsigLabels, owner)
	}
	if int(rrsigLabels) == len(labels) {
		return owner, nil
	}
	suffix := labels[len(labels)-int(rrsigLabels):]
	return dnswire.FromLabels(append([]string{"*"}, suffix...)...)
}

// appendCanonicalRRset appends the canonical wire form of the RRset as
// covered by sig: each record as owner|type|class|OrigTTL|rdlen|rdata,
// records sorted by canonical RDATA (RFC 4034 §6.3).
func appendCanonicalRRset(dst []byte, set RRset, sig dnswire.RRSIG) ([]byte, error) {
	owner, err := canonicalOwner(set.Name, sig.Labels)
	if err != nil {
		return nil, err
	}
	rdatas := make([][]byte, len(set.Datas))
	for i, d := range set.Datas {
		rdatas[i] = dnswire.AppendRData(nil, d)
	}
	sort.Slice(rdatas, func(i, j int) bool { return bytes.Compare(rdatas[i], rdatas[j]) < 0 })
	// Duplicate RDATAs must be counted once (RFC 4034 §6.3).
	rdatas = dedupBytes(rdatas)
	ownerWire := owner.AppendWire(nil)
	for _, rd := range rdatas {
		dst = append(dst, ownerWire...)
		dst = append(dst, byte(set.Type()>>8), byte(set.Type()))
		dst = append(dst, byte(set.Class>>8), byte(set.Class))
		dst = append(dst, byte(sig.OrigTTL>>24), byte(sig.OrigTTL>>16), byte(sig.OrigTTL>>8), byte(sig.OrigTTL))
		dst = append(dst, byte(len(rd)>>8), byte(len(rd)))
		dst = append(dst, rd...)
	}
	return dst, nil
}

func dedupBytes(in [][]byte) [][]byte {
	out := in[:0]
	for i, b := range in {
		if i > 0 && bytes.Equal(in[i-1], b) {
			continue
		}
		out = append(out, b)
	}
	return out
}

// ownerLabelCount returns the RRSIG Labels value for an owner: the
// label count excluding a leading wildcard label (RFC 4034 §3.1.3).
func ownerLabelCount(owner dnswire.Name) uint8 {
	labels := owner.Labels()
	n := len(labels)
	if n > 0 && labels[0] == "*" {
		n--
	}
	return uint8(n)
}

// Sign produces an RRSIG over set using key, valid from inception to
// expiration (Unix seconds, serial arithmetic). The signer name is the
// zone apex the key belongs to.
func Sign(set RRset, key *KeyPair, signer dnswire.Name, inception, expiration uint32) (dnswire.RRSIG, error) {
	sig := dnswire.RRSIG{
		TypeCovered: set.Type(),
		Algorithm:   key.Algorithm,
		Labels:      ownerLabelCount(set.Name),
		OrigTTL:     set.TTL,
		Expiration:  expiration,
		Inception:   inception,
		KeyTag:      key.Tag(),
		SignerName:  signer,
	}
	msg := sig.AppendSignedPart(nil)
	msg, err := appendCanonicalRRset(msg, set, sig)
	if err != nil {
		return dnswire.RRSIG{}, err
	}
	digest := sha256.Sum256(msg)
	switch key.Algorithm {
	case dnswire.AlgECDSAP256SHA256:
		priv := key.priv.(*ecdsa.PrivateKey)
		r, s, err := ecdsa.Sign(rand.Reader, priv, digest[:])
		if err != nil {
			return dnswire.RRSIG{}, err
		}
		out := make([]byte, 64)
		r.FillBytes(out[:32])
		s.FillBytes(out[32:])
		sig.Signature = out
	case dnswire.AlgEd25519:
		// Ed25519 signs the message itself, not a digest (RFC 8080 §4).
		sig.Signature = ed25519.Sign(key.priv.(ed25519.PrivateKey), msg)
	case dnswire.AlgRSASHA256:
		priv := key.priv.(*rsa.PrivateKey)
		s, err := rsa.SignPKCS1v15(nil, priv, crypto.SHA256, digest[:])
		if err != nil {
			return dnswire.RRSIG{}, err
		}
		sig.Signature = s
	default:
		return dnswire.RRSIG{}, fmt.Errorf("%w: %s", ErrUnsupportedAlg, key.Algorithm)
	}
	return sig, nil
}

// SignRR is a convenience that signs the RRset formed by rrs and
// returns the RRSIG as a resource record.
func SignRR(rrs []dnswire.RR, key *KeyPair, signer dnswire.Name, inception, expiration uint32) (dnswire.RR, error) {
	set, err := NewRRset(rrs)
	if err != nil {
		return dnswire.RR{}, err
	}
	sig, err := Sign(set, key, signer, inception, expiration)
	if err != nil {
		return dnswire.RR{}, err
	}
	return dnswire.RR{Name: set.Name, Class: set.Class, TTL: set.TTL, Data: sig}, nil
}

// Validity errors, distinguished so the resolver can map them to the
// right observable behaviour (expired signatures are what the paper's
// "expired" and "it-2501-expired" subdomains exercise).
var (
	ErrSigExpired     = errors.New("dnssec: signature expired")
	ErrSigNotYetValid = errors.New("dnssec: signature not yet valid")
	ErrSigMismatch    = errors.New("dnssec: RRSIG does not match RRset")
)

// serialLTE compares 32-bit serial-arithmetic timestamps (RFC 1982):
// a <= b when the signed distance is non-negative.
func serialLTE(a, b uint32) bool { return int32(b-a) >= 0 }

// CheckValidity verifies the RRSIG temporal window at time now
// (Unix seconds).
func CheckValidity(sig dnswire.RRSIG, now uint32) error {
	if !serialLTE(sig.Inception, now) {
		return fmt.Errorf("%w: inception %d, now %d", ErrSigNotYetValid, sig.Inception, now)
	}
	if !serialLTE(now, sig.Expiration) {
		return fmt.Errorf("%w: expiration %d, now %d", ErrSigExpired, sig.Expiration, now)
	}
	return nil
}

// Verify checks sig over set with the given public key. The caller is
// responsible for temporal validity (CheckValidity) and for checking
// that the key is a zone key whose tag and algorithm match the RRSIG —
// VerifyWithRRSIG bundles all of it.
//
// The public-key operation goes through a process-wide memo keyed by
// the content it depends on (memo.go), so every call still builds and
// digests the canonical signed data, and a changed record, RRSIG field,
// key or signature byte is a different key.
func Verify(set RRset, sig dnswire.RRSIG, key dnswire.DNSKEY) error {
	msg, digest, err := signedData(set, sig)
	if err != nil {
		return err
	}
	k := memoKey(&digest, key, sig.Signature)
	if ok, err := verifyMemo.lookup(k); ok {
		return err
	}
	err = verifySignature(msg, &digest, sig.Signature, key)
	verifyMemo.store(k, err)
	return err
}

// verifyUncached is Verify without the memo: the full cost of one
// verification, for benchmarks that measure it.
func verifyUncached(set RRset, sig dnswire.RRSIG, key dnswire.DNSKEY) error {
	msg, digest, err := signedData(set, sig)
	if err != nil {
		return err
	}
	return verifySignature(msg, &digest, sig.Signature, key)
}

// signedData builds the data an RRSIG signs — its own RDATA up to the
// signature, then the canonical RRset — and its SHA-256 digest.
func signedData(set RRset, sig dnswire.RRSIG) ([]byte, [sha256.Size]byte, error) {
	if sig.TypeCovered != set.Type() {
		return nil, [sha256.Size]byte{}, fmt.Errorf("%w: covers %s, set is %s", ErrSigMismatch, sig.TypeCovered, set.Type())
	}
	msg := sig.AppendSignedPart(nil)
	msg, err := appendCanonicalRRset(msg, set, sig)
	if err != nil {
		return nil, [sha256.Size]byte{}, err
	}
	return msg, sha256.Sum256(msg), nil
}

// verifySignature runs the public-key operation: signature over msg
// (whose SHA-256 is digest) under key.
func verifySignature(msg []byte, digest *[sha256.Size]byte, signature []byte, key dnswire.DNSKEY) error {
	switch key.Algorithm {
	case dnswire.AlgECDSAP256SHA256:
		pub, err := ecdsaPublicFromWire(key.PublicKey)
		if err != nil {
			return err
		}
		if len(signature) != 64 {
			return fmt.Errorf("%w: ECDSA signature length %d", ErrBadSignature, len(signature))
		}
		r := new(big.Int).SetBytes(signature[:32])
		s := new(big.Int).SetBytes(signature[32:])
		if !ecdsa.Verify(pub, digest[:], r, s) {
			return ErrBadSignature
		}
	case dnswire.AlgEd25519:
		if len(key.PublicKey) != ed25519.PublicKeySize {
			return fmt.Errorf("%w: Ed25519 key length %d", ErrBadPublicKey, len(key.PublicKey))
		}
		if !ed25519.Verify(ed25519.PublicKey(key.PublicKey), msg, signature) {
			return ErrBadSignature
		}
	case dnswire.AlgRSASHA256:
		pub, err := rsaPublicFromWire(key.PublicKey)
		if err != nil {
			return err
		}
		if err := rsa.VerifyPKCS1v15(pub, crypto.SHA256, digest[:], signature); err != nil {
			return ErrBadSignature
		}
	default:
		return fmt.Errorf("%w: %s", ErrUnsupportedAlg, key.Algorithm)
	}
	return nil
}

// VerifyWithRRSIG performs the complete RFC 4035 §5.3 check of one
// RRSIG against one candidate DNSKEY: structural match (tag, algorithm,
// signer, zone-key flag, labels), temporal validity at now, and the
// cryptographic signature. The structural and temporal checks run on
// every call; only the cryptographic one is memoized (Verify).
func VerifyWithRRSIG(set RRset, sig dnswire.RRSIG, key dnswire.DNSKEY, signer dnswire.Name, now uint32) error {
	if !key.IsZoneKey() {
		return errors.New("dnssec: DNSKEY is not a zone key")
	}
	if key.Protocol != 3 {
		return errors.New("dnssec: DNSKEY protocol is not 3")
	}
	if sig.Algorithm != key.Algorithm {
		return fmt.Errorf("%w: algorithm", ErrSigMismatch)
	}
	if sig.KeyTag != KeyTag(key) {
		return fmt.Errorf("%w: key tag", ErrSigMismatch)
	}
	if sig.SignerName != signer {
		return fmt.Errorf("%w: signer %s, zone %s", ErrSigMismatch, sig.SignerName, signer)
	}
	if !set.Name.IsSubdomainOf(signer) {
		return fmt.Errorf("%w: owner %s outside zone %s", ErrSigMismatch, set.Name, signer)
	}
	if int(sig.Labels) > set.Name.CountLabels() {
		return fmt.Errorf("%w: labels field", ErrSigMismatch)
	}
	if err := CheckValidity(sig, now); err != nil {
		return err
	}
	return Verify(set, sig, key)
}

func ecdsaPublicFromWire(w []byte) (*ecdsa.PublicKey, error) {
	if len(w) != 64 {
		return nil, fmt.Errorf("%w: ECDSA P-256 key length %d", ErrBadPublicKey, len(w))
	}
	x := new(big.Int).SetBytes(w[:32])
	y := new(big.Int).SetBytes(w[32:])
	pub := &ecdsa.PublicKey{Curve: elliptic.P256(), X: x, Y: y}
	if !pub.Curve.IsOnCurve(x, y) {
		return nil, fmt.Errorf("%w: point not on curve", ErrBadPublicKey)
	}
	return pub, nil
}

func rsaPublicFromWire(w []byte) (*rsa.PublicKey, error) {
	if len(w) < 3 {
		return nil, fmt.Errorf("%w: RSA key too short", ErrBadPublicKey)
	}
	expLen := int(w[0])
	off := 1
	if expLen == 0 {
		if len(w) < 3 {
			return nil, ErrBadPublicKey
		}
		expLen = int(w[1])<<8 | int(w[2])
		off = 3
	}
	if len(w) < off+expLen+1 {
		return nil, fmt.Errorf("%w: RSA exponent overruns key", ErrBadPublicKey)
	}
	exp := new(big.Int).SetBytes(w[off : off+expLen])
	if !exp.IsInt64() || exp.Int64() > 1<<31 || exp.Int64() < 3 {
		return nil, fmt.Errorf("%w: RSA exponent out of range", ErrBadPublicKey)
	}
	mod := new(big.Int).SetBytes(w[off+expLen:])
	return &rsa.PublicKey{N: mod, E: int(exp.Int64())}, nil
}
