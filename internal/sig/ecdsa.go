package sig

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"fmt"

	"aqverify/internal/verify"
)

type ecdsaSigner struct {
	key *ecdsa.PrivateKey
}

func newECDSASigner(opt Options) (Signer, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), opt.rand())
	if err != nil {
		return nil, fmt.Errorf("sig: ecdsa keygen: %w", err)
	}
	return &ecdsaSigner{key: key}, nil
}

func (s *ecdsaSigner) Scheme() Scheme { return ECDSA }

func (s *ecdsaSigner) Sign(digest []byte) ([]byte, error) {
	if len(digest) != 32 {
		return nil, fmt.Errorf("sig: ecdsa: digest must be 32 bytes, got %d", len(digest))
	}
	return ecdsa.SignASN1(cryptoRand(), s.key, digest)
}

func (s *ecdsaSigner) Verifier() Verifier { return &verify.ECDSAVerifier{Key: &s.key.PublicKey} }
