package sig

import (
	"crypto/sha256"
	"testing"

	"aqverify/internal/verify"
)

func TestMarshalVerifierRoundTrip(t *testing.T) {
	digest := sha256.Sum256([]byte("msg"))
	for _, scheme := range []Scheme{RSA, ECDSA, Ed25519, Counting} {
		scheme := scheme
		t.Run(string(scheme), func(t *testing.T) {
			s, err := NewSigner(scheme, Options{RSABits: 1024})
			if err != nil {
				t.Fatal(err)
			}
			sg, err := s.Sign(digest[:])
			if err != nil {
				t.Fatal(err)
			}
			enc, err := verify.MarshalVerifier(s.Verifier())
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			v, err := verify.UnmarshalVerifier(enc)
			if err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if v.Scheme() != scheme {
				t.Errorf("scheme = %v", v.Scheme())
			}
			if err := v.Verify(digest[:], sg); err != nil {
				t.Errorf("round-tripped verifier rejects a valid signature: %v", err)
			}
			other := sha256.Sum256([]byte("other"))
			if err := v.Verify(other[:], sg); err == nil {
				t.Error("round-tripped verifier accepts a wrong digest")
			}
		})
	}
}

func TestMarshalVerifierDSA(t *testing.T) {
	if testing.Short() {
		t.Skip("DSA parameter generation is slow")
	}
	digest := sha256.Sum256([]byte("msg"))
	s, err := NewSigner(DSA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sg, err := s.Sign(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	enc, err := verify.MarshalVerifier(s.Verifier())
	if err != nil {
		t.Fatal(err)
	}
	v, err := verify.UnmarshalVerifier(enc)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Verify(digest[:], sg); err != nil {
		t.Errorf("DSA round trip failed: %v", err)
	}
}

func TestUnmarshalVerifierRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0x99},          // unknown tag
		{1, 0x00, 0x01}, // RSA tag, junk DER
		{5, 0x01},       // counting with trailing bytes
		{4, 0xde, 0xad}, // ed25519 tag, junk
	}
	for i, c := range cases {
		if _, err := verify.UnmarshalVerifier(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestCrossSchemeTagMismatch(t *testing.T) {
	// An RSA key under an ECDSA tag must be rejected.
	s, err := NewSigner(RSA, Options{RSABits: 1024})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := verify.MarshalVerifier(s.Verifier())
	if err != nil {
		t.Fatal(err)
	}
	enc[0] = 3 // ECDSA's tag
	if _, err := verify.UnmarshalVerifier(enc); err == nil {
		t.Error("RSA key with ECDSA tag accepted")
	}
}
