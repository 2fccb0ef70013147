package verify

import (
	"crypto/dsa" //nolint:staticcheck // DSA is part of the paper's evaluation
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/rsa"
	"crypto/x509"
	"encoding/asn1"
	"fmt"
	"math/big"
	"slices"
)

// MarshalVerifier serializes a public verifier so the data owner can
// publish it to users out of band (trust bundles, the /params endpoint of
// cmd/vqserve). The format is one scheme-identifying byte followed by the
// key encoding: PKIX DER for RSA/ECDSA/Ed25519, ASN.1 (P,Q,G,Y) for DSA,
// empty for the measurement-only counting scheme.
func MarshalVerifier(v Verifier) ([]byte, error) {
	var key any // a PKIX key
	switch impl := v.(type) {
	case *Memoized:
		return MarshalVerifier(impl.inner)
	case *RSAVerifier:
		key = impl.Key
	case *ECDSAVerifier:
		key = impl.Key
	case *Ed25519Verifier:
		key = impl.Key
	case *DSAVerifier:
		der, err := asn1.Marshal(dsaPublicKey{
			P: impl.Key.P, Q: impl.Key.Q, G: impl.Key.G, Y: impl.Key.Y,
		})
		if err != nil {
			return nil, fmt.Errorf("sig: marshal dsa: %w", err)
		}
		return append([]byte{schemeTag(DSA)}, der...), nil
	case CountingVerifier:
		return []byte{schemeTag(Counting)}, nil
	default:
		return nil, fmt.Errorf("sig: cannot marshal verifier of type %T", v)
	}
	der, err := x509.MarshalPKIXPublicKey(key)
	if err != nil {
		return nil, fmt.Errorf("sig: marshal %s: %w", v.Scheme(), err)
	}
	return append([]byte{schemeTag(v.Scheme())}, der...), nil
}

// UnmarshalVerifier parses a verifier serialized by MarshalVerifier.
func UnmarshalVerifier(b []byte) (Verifier, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("sig: empty verifier encoding")
	}
	var scheme Scheme
	if t := int(b[0]); t < len(schemeTags) {
		scheme = schemeTags[t]
	}
	rest := b[1:]
	switch scheme {
	case RSA, ECDSA, Ed25519:
		keyAny, err := x509.ParsePKIXPublicKey(rest)
		if err != nil {
			return nil, fmt.Errorf("sig: parse %s key: %w", scheme, err)
		}
		var v Verifier
		switch key := keyAny.(type) {
		case *rsa.PublicKey:
			v = &RSAVerifier{Key: key}
		case *ecdsa.PublicKey:
			v = &ECDSAVerifier{Key: key}
		case ed25519.PublicKey:
			v = &Ed25519Verifier{Key: key}
		default:
			return nil, fmt.Errorf("sig: unsupported PKIX key type %T", keyAny)
		}
		if v.Scheme() != scheme {
			return nil, fmt.Errorf("sig: scheme tag %s but %s key", scheme, v.Scheme())
		}
		return v, nil
	case DSA:
		var pk dsaPublicKey
		extra, err := asn1.Unmarshal(rest, &pk)
		if err != nil || len(extra) != 0 {
			return nil, fmt.Errorf("sig: parse dsa key: malformed")
		}
		pub := &dsa.PublicKey{
			Parameters: dsa.Parameters{P: pk.P, Q: pk.Q, G: pk.G},
			Y:          pk.Y,
		}
		return &DSAVerifier{Key: pub}, nil
	case Counting:
		if len(rest) != 0 {
			return nil, fmt.Errorf("sig: counting verifier carries unexpected bytes")
		}
		return CountingVerifier{}, nil
	default:
		return nil, fmt.Errorf("sig: unknown verifier tag 0x%02x", b[0])
	}
}

// dsaPublicKey is the ASN.1 layout for a DSA public key with parameters.
type dsaPublicKey struct {
	P, Q, G, Y *big.Int
}

// schemeTags maps the one-byte tag that leads an encoded key to its
// scheme; tag 0 names none.
var schemeTags = [...]Scheme{1: RSA, 2: DSA, 3: ECDSA, 4: Ed25519, 5: Counting}

// schemeTag is the tag of a scheme schemeTags names.
func schemeTag(s Scheme) byte { return byte(slices.Index(schemeTags[:], s)) }
