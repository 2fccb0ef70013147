package verify

import (
	"bytes"
	"crypto"
	"crypto/dsa" //nolint:staticcheck // the paper's Fig 7c compares RSA against DSA specifically
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/rsa"
	"encoding/asn1"
	"fmt"
	"math/big"
)

// This file is the public half of the owner's signature schemes: the
// checks a client runs on a 32-byte digest produced by package hashing.
// The signers and key generation are the owner's, in package sig.

// Scheme names a signature algorithm.
type Scheme string

const (
	// RSA is RSASSA-PKCS1-v1_5 over SHA-256 digests.
	RSA Scheme = "rsa"
	// DSA is FIPS 186-3 DSA (the paper's second algorithm).
	DSA Scheme = "dsa"
	// ECDSA is ECDSA over P-256 with ASN.1 signatures.
	ECDSA Scheme = "ecdsa"
	// Ed25519 is EdDSA over Curve25519.
	Ed25519 Scheme = "ed25519"
	// Counting is a non-cryptographic scheme for signature-count
	// experiments: structurally valid, integrity-checking, but trivially
	// forgeable. Never use it outside measurements and tests.
	Counting Scheme = "counting"
)

// Verifier checks signatures over 32-byte digests.
type Verifier interface {
	Scheme() Scheme
	// Verify returns nil iff sig is a valid signature over digest.
	Verify(digest, sig []byte) error
	// SignatureSize returns the nominal signature size in bytes, used for
	// communication-overhead accounting.
	SignatureSize() int
}

// ErrBadSignature is wrapped by every Verify failure caused by an invalid
// signature (as opposed to malformed input).
var ErrBadSignature = fmt.Errorf("sig: signature verification failed")

func checkDigest(scheme Scheme, digest []byte) error {
	if len(digest) != 32 {
		return fmt.Errorf("sig: %s: digest must be 32 bytes, got %d", scheme, len(digest))
	}
	return nil
}

// RSAVerifier checks PKCS#1 v1.5 signatures over SHA-256 digests.
type RSAVerifier struct{ Key *rsa.PublicKey }

func (v *RSAVerifier) Scheme() Scheme { return RSA }

func (v *RSAVerifier) Verify(digest, sig []byte) error {
	if err := checkDigest(RSA, digest); err != nil {
		return err
	}
	if err := rsa.VerifyPKCS1v15(v.Key, crypto.SHA256, digest, sig); err != nil {
		return fmt.Errorf("%w: rsa: %v", ErrBadSignature, err)
	}
	return nil
}

func (v *RSAVerifier) SignatureSize() int { return v.Key.Size() }

// DSAVerifier checks ASN.1 (r, s) DSA signatures.
type DSAVerifier struct{ Key *dsa.PublicKey }

func (v *DSAVerifier) Scheme() Scheme { return DSA }

func (v *DSAVerifier) Verify(digest, sigBytes []byte) error {
	if err := checkDigest(DSA, digest); err != nil {
		return err
	}
	var parsed struct{ R, S *big.Int } // the classic OpenSSL (r, s) encoding
	rest, err := asn1.Unmarshal(sigBytes, &parsed)
	if err != nil || len(rest) != 0 {
		return fmt.Errorf("%w: dsa: malformed signature", ErrBadSignature)
	}
	if !dsa.Verify(v.Key, digest, parsed.R, parsed.S) {
		return fmt.Errorf("%w: dsa", ErrBadSignature)
	}
	return nil
}

func (v *DSAVerifier) SignatureSize() int {
	// ASN.1 SEQUENCE of two 160-bit integers: ~46-48 bytes.
	return 48
}

// ECDSAVerifier checks ASN.1 ECDSA signatures over P-256.
type ECDSAVerifier struct{ Key *ecdsa.PublicKey }

func (v *ECDSAVerifier) Scheme() Scheme { return ECDSA }

func (v *ECDSAVerifier) Verify(digest, sig []byte) error {
	if err := checkDigest(ECDSA, digest); err != nil {
		return err
	}
	if !ecdsa.VerifyASN1(v.Key, digest, sig) {
		return fmt.Errorf("%w: ecdsa", ErrBadSignature)
	}
	return nil
}

func (v *ECDSAVerifier) SignatureSize() int { return 72 } // max ASN.1 P-256 size

// Ed25519Verifier checks Ed25519 signatures, the digest being the message.
type Ed25519Verifier struct{ Key ed25519.PublicKey }

func (v *Ed25519Verifier) Scheme() Scheme { return Ed25519 }

func (v *Ed25519Verifier) Verify(digest, sig []byte) error {
	if err := checkDigest(Ed25519, digest); err != nil {
		return err
	}
	if !ed25519.Verify(v.Key, digest, sig) {
		return fmt.Errorf("%w: ed25519", ErrBadSignature)
	}
	return nil
}

func (v *Ed25519Verifier) SignatureSize() int { return ed25519.SignatureSize }

// CountingVerifier checks the measurement-only counting scheme: a
// "signature" is the digest zero-padded to the size of an RSA-2048
// signature, so byte accounting matches the default real scheme and
// verification still catches any tampering with signed content in tests,
// but anyone can forge it.
type CountingVerifier struct{}

func (CountingVerifier) Scheme() Scheme { return Counting }

func (c CountingVerifier) Verify(digest, sig []byte) error {
	if err := checkDigest(Counting, digest); err != nil {
		return err
	}
	if len(sig) != c.SignatureSize() || !bytes.Equal(sig[:32], digest) {
		return fmt.Errorf("%w: counting", ErrBadSignature)
	}
	for _, b := range sig[32:] {
		if b != 0 {
			return fmt.Errorf("%w: counting: corrupted padding", ErrBadSignature)
		}
	}
	return nil
}

func (CountingVerifier) SignatureSize() int { return 256 }
