package sig

import (
	"crypto/sha256"
	"errors"
	"testing"

	"aqverify/internal/verify"
)

// realSchemes are the cryptographic schemes; DSA is exercised separately
// because its parameter generation dominates test time.
var fastSchemes = []Scheme{RSA, ECDSA, Ed25519, Counting}

func testOptions() Options {
	// 1024-bit RSA keeps the test suite fast; production callers default
	// to 2048 by leaving RSABits at 0.
	return Options{RSABits: 1024}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	digest := sha256.Sum256([]byte("payload"))
	for _, scheme := range fastSchemes {
		scheme := scheme
		t.Run(string(scheme), func(t *testing.T) {
			s, err := NewSigner(scheme, testOptions())
			if err != nil {
				t.Fatalf("NewSigner: %v", err)
			}
			if s.Scheme() != scheme {
				t.Errorf("Scheme = %v", s.Scheme())
			}
			sigBytes, err := s.Sign(digest[:])
			if err != nil {
				t.Fatalf("Sign: %v", err)
			}
			v := s.Verifier()
			if err := v.Verify(digest[:], sigBytes); err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if v.SignatureSize() <= 0 {
				t.Error("SignatureSize should be positive")
			}
		})
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	digest := sha256.Sum256([]byte("payload"))
	other := sha256.Sum256([]byte("other"))
	for _, scheme := range fastSchemes {
		scheme := scheme
		t.Run(string(scheme), func(t *testing.T) {
			s, err := NewSigner(scheme, testOptions())
			if err != nil {
				t.Fatalf("NewSigner: %v", err)
			}
			sigBytes, err := s.Sign(digest[:])
			if err != nil {
				t.Fatalf("Sign: %v", err)
			}
			v := s.Verifier()
			// Wrong digest.
			if err := v.Verify(other[:], sigBytes); !errors.Is(err, verify.ErrBadSignature) {
				t.Errorf("wrong digest: err = %v, want verify.ErrBadSignature", err)
			}
			// Flipped signature bit.
			bad := append([]byte(nil), sigBytes...)
			bad[len(bad)/2] ^= 0x01
			if err := v.Verify(digest[:], bad); !errors.Is(err, verify.ErrBadSignature) {
				t.Errorf("flipped sig: err = %v, want verify.ErrBadSignature", err)
			}
			// Truncated signature.
			if err := v.Verify(digest[:], sigBytes[:len(sigBytes)-1]); err == nil {
				t.Error("truncated sig accepted")
			}
		})
	}
}

func TestRejectNonDigestInput(t *testing.T) {
	for _, scheme := range fastSchemes {
		s, err := NewSigner(scheme, testOptions())
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if _, err := s.Sign([]byte("short")); err == nil {
			t.Errorf("%v: signed non-32-byte input", scheme)
		}
		if err := s.Verifier().Verify([]byte("short"), nil); err == nil {
			t.Errorf("%v: verified non-32-byte input", scheme)
		}
	}
}

func TestUnknownScheme(t *testing.T) {
	if _, err := NewSigner("nope", Options{}); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestKeysAreIndependent(t *testing.T) {
	digest := sha256.Sum256([]byte("payload"))
	s1, err := NewSigner(Ed25519, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSigner(Ed25519, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sig1, _ := s1.Sign(digest[:])
	if err := s2.Verifier().Verify(digest[:], sig1); !errors.Is(err, verify.ErrBadSignature) {
		t.Error("signature from one key verified under another")
	}
}

func TestDSASignVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("DSA parameter generation is slow")
	}
	digest := sha256.Sum256([]byte("payload"))
	s, err := NewSigner(DSA, Options{})
	if err != nil {
		t.Fatalf("NewSigner(DSA): %v", err)
	}
	sigBytes, err := s.Sign(digest[:])
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if err := s.Verifier().Verify(digest[:], sigBytes); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	other := sha256.Sum256([]byte("other"))
	if err := s.Verifier().Verify(other[:], sigBytes); !errors.Is(err, verify.ErrBadSignature) {
		t.Errorf("wrong digest accepted: %v", err)
	}
}

func TestCountingSchemeIsStructural(t *testing.T) {
	digest := sha256.Sum256([]byte("payload"))
	s, _ := NewSigner(Counting, Options{})
	sig1, _ := s.Sign(digest[:])
	if len(sig1) != 256 {
		t.Errorf("counting signature size = %d, want 256 (RSA-2048 mimic)", len(sig1))
	}
	// Counting signatures still bind the digest so tamper tests work.
	other := sha256.Sum256([]byte("other"))
	if err := s.Verifier().Verify(other[:], sig1); err == nil {
		t.Error("counting scheme accepted mismatched digest")
	}
}
