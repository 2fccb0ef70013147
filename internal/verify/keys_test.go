package verify_test

import (
	"bytes"
	"testing"

	"aqverify/internal/sig"
	"aqverify/internal/verify"
)

// FuzzUnmarshalVerifier feeds the key decoder the bytes a server's
// /params or an artifact manifest can carry. Whatever decodes must
// re-marshal, the re-marshalled key must be a fixed point of
// unmarshal-then-marshal, and the decoded verifier must answer Verify
// and SignatureSize without panicking. The seeds are every scheme's
// marshalled key.
func FuzzUnmarshalVerifier(f *testing.F) {
	for _, scheme := range []verify.Scheme{verify.RSA, verify.DSA, verify.ECDSA, verify.Ed25519, verify.Counting} {
		s, err := sig.NewSigner(scheme, sig.Options{RSABits: 1024, Rand: sig.DeterministicRand(1)})
		if err != nil {
			f.Fatal(err)
		}
		b, err := verify.MarshalVerifier(s.Verifier())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		v, err := verify.UnmarshalVerifier(b)
		if err != nil {
			return
		}
		again, err := verify.MarshalVerifier(v)
		if err != nil {
			t.Fatalf("decoded %s verifier does not re-marshal: %v", v.Scheme(), err)
		}
		v2, err := verify.UnmarshalVerifier(again)
		if err != nil {
			t.Fatalf("re-marshalled %s key does not decode: %v", v.Scheme(), err)
		}
		if fixed, err := verify.MarshalVerifier(v2); err != nil || !bytes.Equal(fixed, again) {
			t.Fatalf("re-marshalled %s key is not a fixed point: %x then %x (%v)", v.Scheme(), again, fixed, err)
		}
		// Any verdict will do: only a panic fails here.
		var digest [32]byte
		_ = v.Verify(digest[:], b)
		_ = v.SignatureSize()
	})
}
