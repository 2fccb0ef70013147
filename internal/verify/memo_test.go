package verify_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"aqverify/internal/sig"
	"aqverify/internal/verify"
)

// memoCase is one call of the stream with the inner verifier's verdict.
type memoCase struct {
	digest, sig []byte
	accept      bool // inner verdict is nil
	bad         bool // inner verdict wraps verify.ErrBadSignature
}

// memoStream draws a seeded stream over 12 signed digests: valid pairs,
// bit-flipped digests and signatures, a valid signature replayed under
// another signed digest, truncated and over-long signatures, and
// wrong-length digests — among them the split that concatenates to
// exactly the bytes of a valid pair, the memo key's one ambiguity.
// Verdicts are the raw verifier's. It also returns how many distinct
// pairs the raw verifier accepted.
func memoStream(t *testing.T, s sig.Signer, v verify.Verifier) ([]memoCase, int) {
	t.Helper()
	const signed = 12
	var ds, ss [signed][]byte
	for i := range ds {
		d := sha256.Sum256([]byte(fmt.Sprintf("subdomain %d", i)))
		sg, err := s.Sign(d[:])
		if err != nil {
			t.Fatal(err)
		}
		ds[i], ss[i] = d[:], sg
	}
	flip := func(b []byte, at int) []byte {
		out := bytes.Clone(b)
		out[at%len(out)] ^= 1 << (at % 8)
		return out
	}
	rng := rand.New(rand.NewSource(18))
	stream := make([]memoCase, 300)
	distinct := map[string]bool{}
	for n := range stream {
		i, j := rng.Intn(signed), rng.Intn(signed)
		c := memoCase{digest: ds[i], sig: ss[i]}
		switch rng.Intn(10) {
		case 0:
			c.digest = flip(ds[i], rng.Int())
		case 1:
			c.sig = flip(ss[i], rng.Int())
		case 2:
			c.sig = ss[j]
		case 3:
			c.sig = ss[i][:len(ss[i])-1]
		case 4:
			c.sig = append(bytes.Clone(ss[i]), 0)
		case 5:
			c.digest, c.sig = ds[i][:31], append(bytes.Clone(ds[i][31:]), ss[i]...)
		case 6:
			c.digest = append(bytes.Clone(ds[i]), ss[i][0])
			c.sig = ss[i][1:]
		}
		err := v.Verify(c.digest, c.sig)
		c.accept, c.bad = err == nil, errors.Is(err, verify.ErrBadSignature)
		if c.accept {
			distinct[string(c.digest)+string(c.sig)] = true
		}
		stream[n] = c
	}
	return stream, len(distinct)
}

// replay runs the stream through m and reports every verdict that
// differs from the raw verifier's.
func replay(t *testing.T, m *verify.Memoized, stream []memoCase) {
	for n, c := range stream {
		err := m.Verify(c.digest, c.sig)
		if (err == nil) != c.accept || errors.Is(err, verify.ErrBadSignature) != c.bad {
			t.Errorf("call %d: memo says %v, raw verifier accept=%v bad=%v", n, err, c.accept, c.bad)
		}
	}
}

func TestMemoIsTheVerifier(t *testing.T) {
	for _, scheme := range []verify.Scheme{verify.RSA, verify.DSA, verify.ECDSA, verify.Ed25519, verify.Counting} {
		t.Run(string(scheme), func(t *testing.T) {
			if scheme == verify.DSA && testing.Short() {
				t.Skip("verify.DSA parameter generation is slow")
			}
			s, err := sig.NewSigner(scheme, sig.Options{RSABits: 1024})
			if err != nil {
				t.Fatal(err)
			}
			v := s.Verifier()
			stream, distinct := memoStream(t, s, v)
			accepted := 0
			for _, c := range stream {
				if c.accept {
					accepted++
				}
			}
			if distinct < 10 || accepted == len(stream) || accepted < len(stream)/4 {
				t.Fatalf("stream is lopsided: %d calls, %d accepted, %d distinct", len(stream), accepted, distinct)
			}

			// Capacity 4 against 12 signed pairs: both generations roll
			// over many times mid-stream, on first sight and on repeats.
			small := verify.NewMemoLimit(v, 4)
			for pass := 0; pass < 3; pass++ {
				replay(t, small, stream)
			}
			if cur, old := small.Generations(); cur > 4 || old > 4 {
				t.Errorf("generations hold %d+%d pairs, capacity is 4", cur, old)
			}
			if small.Misses() <= uint64(distinct) {
				t.Errorf("misses = %d with capacity 4: nothing was ever evicted", small.Misses())
			}

			// Nothing evicted: one public-key operation per distinct pair.
			roomy := verify.NewMemoLimit(v, len(stream))
			replay(t, roomy, stream)
			replay(t, roomy, stream)
			if got := roomy.Misses(); got != uint64(distinct) {
				t.Errorf("misses = %d, want the %d distinct accepted pairs", got, distinct)
			}
			if got, want := roomy.Hits(), uint64(2*accepted-distinct); got != want {
				t.Errorf("hits = %d, want %d", got, want)
			}

			// The same stream from 8 goroutines, under -race.
			shared, rolling := verify.NewMemoLimit(v, len(stream)), verify.NewMemoLimit(v, 4)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					replay(t, shared, stream)
					replay(t, rolling, stream)
				}()
			}
			wg.Wait()
			if got := shared.Misses(); got != uint64(distinct) {
				t.Errorf("concurrent misses = %d, want %d", got, distinct)
			}

			if m := verify.Memo(v); m.Scheme() != v.Scheme() || m.SignatureSize() != v.SignatureSize() {
				t.Errorf("Memo reports %v/%d, inner %v/%d", m.Scheme(), m.SignatureSize(), v.Scheme(), v.SignatureSize())
			}
			want, err := verify.MarshalVerifier(v)
			if err != nil {
				t.Fatal(err)
			}
			got, err := verify.MarshalVerifier(verify.Memo(v))
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("verify.MarshalVerifier(verify.Memo(v)) = %x, %v; want the inner key %x", got, err, want)
			}
		})
	}
}
