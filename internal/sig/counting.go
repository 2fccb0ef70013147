package sig

import (
	"fmt"

	"aqverify/internal/verify"
)

// countingSigner is a measurement-only scheme: the "signature" embeds the
// digest (verify.CountingVerifier), so verification still catches any
// tampering with signed content in tests, but anyone can forge it. It
// exists for experiments that only count signatures (Fig 5a) and for fast
// large-n structure builds.
type countingSigner struct{}

func newCountingSigner() Signer { return countingSigner{} }

func (countingSigner) Scheme() Scheme { return Counting }

func (countingSigner) Sign(digest []byte) ([]byte, error) {
	if len(digest) != 32 {
		return nil, fmt.Errorf("sig: counting: digest must be 32 bytes, got %d", len(digest))
	}
	out := make([]byte, verify.CountingVerifier{}.SignatureSize())
	copy(out, digest)
	return out, nil
}

func (countingSigner) Verifier() Verifier { return verify.CountingVerifier{} }
