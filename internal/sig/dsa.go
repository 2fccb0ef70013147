package sig

import (
	"crypto/dsa" //nolint:staticcheck // the paper's Fig 7c compares RSA against DSA specifically
	"encoding/asn1"
	"fmt"
	"math/big"
	"sync"

	"aqverify/internal/verify"
)

// dsaParams caches DSA domain parameters: generation is by far the most
// expensive step (minutes at L2048) and the parameters are public and
// shareable, so one set per process is the standard deployment.
var (
	dsaParamsOnce sync.Once
	dsaParams     dsa.Parameters
	dsaParamsErr  error
)

func sharedDSAParams() (dsa.Parameters, error) {
	dsaParamsOnce.Do(func() {
		// L1024/N160 keeps keygen interactive while exercising the same
		// code path as larger parameter sets; the paper does not state
		// its DSA size. crypto/rand is used even when the caller supplies
		// a deterministic reader, because parameters are shared state.
		dsaParamsErr = dsa.GenerateParameters(&dsaParams, randReaderForParams(), dsa.L1024N160)
	})
	return dsaParams, dsaParamsErr
}

type dsaSigner struct {
	key *dsa.PrivateKey
}

func newDSASigner(opt Options) (Signer, error) {
	params, err := sharedDSAParams()
	if err != nil {
		return nil, fmt.Errorf("sig: dsa parameters: %w", err)
	}
	key := &dsa.PrivateKey{}
	key.Parameters = params
	if err := dsa.GenerateKey(key, opt.rand()); err != nil {
		return nil, fmt.Errorf("sig: dsa keygen: %w", err)
	}
	return &dsaSigner{key: key}, nil
}

func (s *dsaSigner) Scheme() Scheme { return DSA }

func (s *dsaSigner) Sign(digest []byte) ([]byte, error) {
	if len(digest) != 32 {
		return nil, fmt.Errorf("sig: dsa: digest must be 32 bytes, got %d", len(digest))
	}
	r, sv, err := dsa.Sign(cryptoRand(), s.key, digest)
	if err != nil {
		return nil, fmt.Errorf("sig: dsa sign: %w", err)
	}
	// The ASN.1 (r, s) sequence verify.DSAVerifier parses.
	return asn1.Marshal(struct{ R, S *big.Int }{r, sv})
}

func (s *dsaSigner) Verifier() Verifier { return &verify.DSAVerifier{Key: &s.key.PublicKey} }
