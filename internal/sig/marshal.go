package sig

import (
	"crypto/dsa" //nolint:staticcheck // DSA is part of the paper's evaluation
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/rsa"
	"crypto/x509"
	"encoding/asn1"
	"fmt"
	"math/big"
)

// MarshalVerifier serializes a public verifier so the data owner can
// publish it to users out of band (trust bundles, the /params endpoint of
// cmd/vqserve). The format is one scheme-identifying byte followed by the
// key encoding: PKIX DER for RSA/ECDSA/Ed25519, ASN.1 (P,Q,G,Y) for DSA,
// empty for the measurement-only counting scheme.
func MarshalVerifier(v Verifier) ([]byte, error) {
	switch impl := v.(type) {
	case *Memoized:
		return MarshalVerifier(impl.inner)
	case *rsaVerifier:
		der, err := x509.MarshalPKIXPublicKey(impl.pub)
		if err != nil {
			return nil, fmt.Errorf("sig: marshal rsa: %w", err)
		}
		return append([]byte{schemeTag(RSA)}, der...), nil
	case *ecdsaVerifier:
		der, err := x509.MarshalPKIXPublicKey(impl.pub)
		if err != nil {
			return nil, fmt.Errorf("sig: marshal ecdsa: %w", err)
		}
		return append([]byte{schemeTag(ECDSA)}, der...), nil
	case *ed25519Verifier:
		der, err := x509.MarshalPKIXPublicKey(impl.pub)
		if err != nil {
			return nil, fmt.Errorf("sig: marshal ed25519: %w", err)
		}
		return append([]byte{schemeTag(Ed25519)}, der...), nil
	case *dsaVerifier:
		der, err := asn1.Marshal(dsaPublicKey{
			P: impl.pub.P, Q: impl.pub.Q, G: impl.pub.G, Y: impl.pub.Y,
		})
		if err != nil {
			return nil, fmt.Errorf("sig: marshal dsa: %w", err)
		}
		return append([]byte{schemeTag(DSA)}, der...), nil
	case countingVerifier:
		return []byte{schemeTag(Counting)}, nil
	default:
		return nil, fmt.Errorf("sig: cannot marshal verifier of type %T", v)
	}
}

// UnmarshalVerifier parses a verifier serialized by MarshalVerifier.
func UnmarshalVerifier(b []byte) (Verifier, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("sig: empty verifier encoding")
	}
	scheme, rest := tagScheme(b[0]), b[1:]
	switch scheme {
	case RSA, ECDSA, Ed25519:
		keyAny, err := x509.ParsePKIXPublicKey(rest)
		if err != nil {
			return nil, fmt.Errorf("sig: parse %s key: %w", scheme, err)
		}
		switch key := keyAny.(type) {
		case *rsa.PublicKey:
			if scheme != RSA {
				return nil, fmt.Errorf("sig: scheme tag %s but RSA key", scheme)
			}
			return &rsaVerifier{pub: key}, nil
		case *ecdsa.PublicKey:
			if scheme != ECDSA {
				return nil, fmt.Errorf("sig: scheme tag %s but ECDSA key", scheme)
			}
			return &ecdsaVerifier{pub: key}, nil
		case ed25519.PublicKey:
			if scheme != Ed25519 {
				return nil, fmt.Errorf("sig: scheme tag %s but Ed25519 key", scheme)
			}
			return &ed25519Verifier{pub: key}, nil
		default:
			return nil, fmt.Errorf("sig: unsupported PKIX key type %T", keyAny)
		}
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
		return &dsaVerifier{pub: pub}, nil
	case Counting:
		if len(rest) != 0 {
			return nil, fmt.Errorf("sig: counting verifier carries unexpected bytes")
		}
		return countingVerifier{}, nil
	default:
		return nil, fmt.Errorf("sig: unknown verifier tag 0x%02x", b[0])
	}
}

// dsaPublicKey is the ASN.1 layout for a DSA public key with parameters.
type dsaPublicKey struct {
	P, Q, G, Y *big.Int
}

// schemeTag maps schemes to their one-byte wire tags.
func schemeTag(s Scheme) byte {
	switch s {
	case RSA:
		return 1
	case DSA:
		return 2
	case ECDSA:
		return 3
	case Ed25519:
		return 4
	case Counting:
		return 5
	default:
		return 0
	}
}

// tagScheme is the inverse of schemeTag.
func tagScheme(b byte) Scheme {
	switch b {
	case 1:
		return RSA
	case 2:
		return DSA
	case 3:
		return ECDSA
	case 4:
		return Ed25519
	case 5:
		return Counting
	default:
		return ""
	}
}
