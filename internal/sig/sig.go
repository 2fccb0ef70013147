// Package sig is the data owner's half of the digital-signature schemes
// that anchor the verification structures: key generation and signing for
// RSA (the paper's default), DSA (the paper's comparison point in Fig 7c),
// ECDSA and Ed25519 as modern alternatives, and a no-crypto counting
// scheme for experiments that only tally signature counts (Fig 5a). The
// verifiers, the key format and the memo a client runs are package
// verify's; sig imports them, never the reverse.
//
// Every scheme signs a 32-byte digest produced by package hashing; schemes
// that internally hash again (Ed25519) treat the digest as the message.
package sig

import (
	"crypto/rand"
	"fmt"
	"io"

	"aqverify/internal/verify"
)

// A Signer speaks the verifier's scheme names and returns its Verifier.
type Scheme = verify.Scheme
type Verifier = verify.Verifier

const RSA, DSA, ECDSA, Ed25519, Counting = verify.RSA, verify.DSA, verify.ECDSA, verify.Ed25519, verify.Counting

// Signer creates signatures over 32-byte digests.
type Signer interface {
	Scheme() Scheme
	// Sign returns a signature over digest.
	Sign(digest []byte) ([]byte, error)
	// Verifier returns the matching public verifier.
	Verifier() Verifier
}

// Options configures key generation.
type Options struct {
	// RSABits is the RSA modulus size; 0 means 2048.
	RSABits int
	// Rand is the randomness source; nil means crypto/rand.Reader.
	Rand io.Reader
}

func (o Options) rand() io.Reader {
	if o.Rand == nil {
		return rand.Reader
	}
	return o.Rand
}

func (o Options) rsaBits() int {
	if o.RSABits == 0 {
		return 2048
	}
	return o.RSABits
}

// NewSigner generates a fresh key pair for the scheme.
func NewSigner(scheme Scheme, opt Options) (Signer, error) {
	switch scheme {
	case RSA:
		return newRSASigner(opt)
	case DSA:
		return newDSASigner(opt)
	case ECDSA:
		return newECDSASigner(opt)
	case Ed25519:
		return newEd25519Signer(opt)
	case Counting:
		return newCountingSigner(), nil
	default:
		return nil, fmt.Errorf("sig: unknown scheme %q", scheme)
	}
}
