package sig

import (
	"crypto/ed25519"
	"fmt"

	"aqverify/internal/verify"
)

type ed25519Signer struct {
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
}

func newEd25519Signer(opt Options) (Signer, error) {
	pub, priv, err := ed25519.GenerateKey(opt.rand())
	if err != nil {
		return nil, fmt.Errorf("sig: ed25519 keygen: %w", err)
	}
	return &ed25519Signer{priv: priv, pub: pub}, nil
}

func (s *ed25519Signer) Scheme() Scheme { return Ed25519 }

func (s *ed25519Signer) Sign(digest []byte) ([]byte, error) {
	if len(digest) != 32 {
		return nil, fmt.Errorf("sig: ed25519: digest must be 32 bytes, got %d", len(digest))
	}
	return ed25519.Sign(s.priv, digest), nil
}

func (s *ed25519Signer) Verifier() Verifier { return &verify.Ed25519Verifier{Key: s.pub} }
