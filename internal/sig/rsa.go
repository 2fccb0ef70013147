package sig

import (
	"crypto"
	"crypto/rsa"
	"fmt"

	"aqverify/internal/verify"
)

type rsaSigner struct {
	key *rsa.PrivateKey
}

func newRSASigner(opt Options) (Signer, error) {
	key, err := rsa.GenerateKey(opt.rand(), opt.rsaBits())
	if err != nil {
		return nil, fmt.Errorf("sig: rsa keygen: %w", err)
	}
	return &rsaSigner{key: key}, nil
}

func (s *rsaSigner) Scheme() Scheme { return RSA }

func (s *rsaSigner) Sign(digest []byte) ([]byte, error) {
	if len(digest) != 32 {
		return nil, fmt.Errorf("sig: rsa: digest must be 32 bytes, got %d", len(digest))
	}
	// PKCS#1 v1.5 signing of a precomputed SHA-256 digest is
	// deterministic, which keeps structure bytes reproducible.
	return rsa.SignPKCS1v15(nil, s.key, crypto.SHA256, digest)
}

func (s *rsaSigner) Verifier() Verifier { return &verify.RSAVerifier{Key: &s.key.PublicKey} }
