// Package tamper simulates the paper's adversary (§2.2): a compromised or
// misconfigured server — or a network attacker — that returns modified
// query results or verification objects. Each catalog entry is one attack
// the verification machinery must detect; the test suites assert that
// every applicable attack on every query type fails verification.
// Channel puts the adversary on the query plane itself — a
// backend.Backend decorator rewriting answer bytes in flight — so the
// same attacks run against every surface a user can reach.
package tamper

import (
	"math/rand"

	"aqverify/internal/mesh"
	"aqverify/internal/record"
	"aqverify/internal/verify"
)

// IFMH is one attack against an IFMH answer. Apply mutates the answer in
// place and reports whether the attack was applicable (for example,
// dropping a middle record needs at least two records). Answers must be
// Clone()d by the caller before mutation.
type IFMH struct {
	Name  string
	Apply func(a *verify.Answer, rng *rand.Rand) bool
}

// Mesh is one attack against a signature-mesh answer.
type Mesh struct {
	Name  string
	Apply func(a *mesh.Answer, rng *rand.Rand) bool
}

func mutateRecord(r *record.Record, rng *rand.Rand) {
	switch rng.Intn(3) {
	case 0:
		r.Attrs[rng.Intn(len(r.Attrs))] += 1 + rng.Float64()
	case 1:
		r.ID ^= 1 << uint(rng.Intn(32))
	default:
		r.Payload = append(r.Payload, 0x42)
	}
}

// IFMHCatalog returns every attack against IFMH answers. One-signature
// and multi-signature specific attacks report inapplicable on the other
// mode.
func IFMHCatalog() []IFMH {
	return []IFMH{
		{Name: "forge-result-record", Apply: func(a *verify.Answer, rng *rand.Rand) bool {
			if len(a.Records) == 0 {
				return false
			}
			mutateRecord(&a.Records[rng.Intn(len(a.Records))], rng)
			return true
		}},
		{Name: "drop-middle-record", Apply: func(a *verify.Answer, rng *rand.Rand) bool {
			if len(a.Records) < 3 {
				return false
			}
			i := 1 + rng.Intn(len(a.Records)-2)
			a.Records = append(a.Records[:i], a.Records[i+1:]...)
			return true
		}},
		{Name: "drop-first-record", Apply: func(a *verify.Answer, rng *rand.Rand) bool {
			if len(a.Records) < 1 {
				return false
			}
			a.Records = a.Records[1:]
			return true
		}},
		{Name: "duplicate-record", Apply: func(a *verify.Answer, rng *rand.Rand) bool {
			if len(a.Records) == 0 {
				return false
			}
			i := rng.Intn(len(a.Records))
			a.Records = append(a.Records[:i+1], a.Records[i:]...)
			return true
		}},
		{Name: "reorder-records", Apply: func(a *verify.Answer, rng *rand.Rand) bool {
			if len(a.Records) < 2 {
				return false
			}
			i := rng.Intn(len(a.Records) - 1)
			// Swapping equal-score records would be semantically
			// invisible; the Merkle check still catches the position
			// change because leaf digests move.
			a.Records[i], a.Records[i+1] = a.Records[i+1], a.Records[i]
			return true
		}},
		{Name: "shift-window-start", Apply: func(a *verify.Answer, rng *rand.Rand) bool {
			if a.VO.Start+len(a.Records) >= a.VO.ListLen {
				a.VO.Start--
			} else {
				a.VO.Start++
			}
			return true
		}},
		{Name: "forge-left-boundary", Apply: func(a *verify.Answer, rng *rand.Rand) bool {
			if a.VO.Left.Kind != verify.BoundaryRecord {
				return false
			}
			mutateRecord(&a.VO.Left.Rec, rng)
			return true
		}},
		{Name: "forge-right-boundary", Apply: func(a *verify.Answer, rng *rand.Rand) bool {
			if a.VO.Right.Kind != verify.BoundaryRecord {
				return false
			}
			mutateRecord(&a.VO.Right.Rec, rng)
			return true
		}},
		{Name: "truncate-fmh-proof", Apply: func(a *verify.Answer, rng *rand.Rand) bool {
			if len(a.VO.FProof.Hashes) == 0 {
				return false
			}
			a.VO.FProof.Hashes = a.VO.FProof.Hashes[:len(a.VO.FProof.Hashes)-1]
			return true
		}},
		{Name: "flip-fmh-proof-bit", Apply: func(a *verify.Answer, rng *rand.Rand) bool {
			if len(a.VO.FProof.Hashes) == 0 {
				return false
			}
			i := rng.Intn(len(a.VO.FProof.Hashes))
			a.VO.FProof.Hashes[i][rng.Intn(32)] ^= 1 << uint(rng.Intn(8))
			return true
		}},
		{Name: "corrupt-signature", Apply: func(a *verify.Answer, rng *rand.Rand) bool {
			if len(a.VO.Signature) == 0 {
				return false
			}
			a.VO.Signature[rng.Intn(len(a.VO.Signature))] ^= 1 << uint(rng.Intn(8))
			return true
		}},
		{Name: "inflate-list-length", Apply: func(a *verify.Answer, rng *rand.Rand) bool {
			// Claiming a longer list tries to hide tail records from
			// top-k results; the sentinel digests bind the real length.
			if a.VO.Right.Kind != verify.BoundaryMax && a.VO.Left.Kind != verify.BoundaryMin {
				return false
			}
			a.VO.ListLen++
			if a.VO.Left.Kind != verify.BoundaryMin {
				a.VO.Start++ // keep the structural checks self-consistent
			}
			return true
		}},
		{Name: "flip-path-direction", Apply: func(a *verify.Answer, rng *rand.Rand) bool {
			if a.VO.Mode != verify.OneSignature || len(a.VO.Path) == 0 {
				return false
			}
			i := rng.Intn(len(a.VO.Path))
			a.VO.Path[i].TookAbove = !a.VO.Path[i].TookAbove
			return true
		}},
		{Name: "drop-path-step", Apply: func(a *verify.Answer, rng *rand.Rand) bool {
			if a.VO.Mode != verify.OneSignature || len(a.VO.Path) == 0 {
				return false
			}
			a.VO.Path = a.VO.Path[1:]
			return true
		}},
		{Name: "swap-path-sibling", Apply: func(a *verify.Answer, rng *rand.Rand) bool {
			if a.VO.Mode != verify.OneSignature || len(a.VO.Path) == 0 {
				return false
			}
			i := rng.Intn(len(a.VO.Path))
			a.VO.Path[i].Sibling[0] ^= 0xff
			return true
		}},
		{Name: "widen-subdomain-ineqs", Apply: func(a *verify.Answer, rng *rand.Rand) bool {
			if a.VO.Mode != verify.MultiSignature || len(a.VO.Ineqs) == 0 {
				return false
			}
			// Loosen every constraint so a replayed X would pass the
			// containment check; the signed digest must expose it.
			for i := range a.VO.Ineqs {
				a.VO.Ineqs[i].H.B += 1e6
			}
			return true
		}},
		{Name: "drop-subdomain-ineq", Apply: func(a *verify.Answer, rng *rand.Rand) bool {
			if a.VO.Mode != verify.MultiSignature || len(a.VO.Ineqs) < 2 {
				return false
			}
			a.VO.Ineqs = a.VO.Ineqs[1:]
			return true
		}},
		{Name: "append-forged-record", Apply: func(a *verify.Answer, rng *rand.Rand) bool {
			if len(a.Records) == 0 {
				return false
			}
			forged := a.Records[len(a.Records)-1].Clone()
			forged.ID += 1000000
			forged.Attrs[0] += 0.001
			a.Records = append(a.Records, forged)
			return true
		}},
	}
}

// MeshCatalog returns every attack against mesh answers.
func MeshCatalog() []Mesh {
	return []Mesh{
		{Name: "forge-result-record", Apply: func(a *mesh.Answer, rng *rand.Rand) bool {
			if len(a.Records) == 0 {
				return false
			}
			mutateRecord(&a.Records[rng.Intn(len(a.Records))], rng)
			return true
		}},
		{Name: "drop-middle-record", Apply: func(a *mesh.Answer, rng *rand.Rand) bool {
			if len(a.Records) < 3 {
				return false
			}
			i := 1 + rng.Intn(len(a.Records)-2)
			a.Records = append(a.Records[:i], a.Records[i+1:]...)
			a.VO.Pairs = append(a.VO.Pairs[:i], a.VO.Pairs[i+1:]...)
			return true
		}},
		{Name: "reorder-records", Apply: func(a *mesh.Answer, rng *rand.Rand) bool {
			if len(a.Records) < 2 {
				return false
			}
			i := rng.Intn(len(a.Records) - 1)
			a.Records[i], a.Records[i+1] = a.Records[i+1], a.Records[i]
			return true
		}},
		{Name: "forge-left-boundary", Apply: func(a *mesh.Answer, rng *rand.Rand) bool {
			if a.VO.Left.Kind != verify.BoundaryRecord {
				return false
			}
			mutateRecord(&a.VO.Left.Rec, rng)
			return true
		}},
		{Name: "forge-right-boundary", Apply: func(a *mesh.Answer, rng *rand.Rand) bool {
			if a.VO.Right.Kind != verify.BoundaryRecord {
				return false
			}
			mutateRecord(&a.VO.Right.Rec, rng)
			return true
		}},
		{Name: "corrupt-pair-signature", Apply: func(a *mesh.Answer, rng *rand.Rand) bool {
			if len(a.VO.Pairs) == 0 {
				return false
			}
			p := &a.VO.Pairs[rng.Intn(len(a.VO.Pairs))]
			p.Sig[rng.Intn(len(p.Sig))] ^= 1 << uint(rng.Intn(8))
			return true
		}},
		{Name: "stretch-run-interval", Apply: func(a *mesh.Answer, rng *rand.Rand) bool {
			if len(a.VO.Pairs) == 0 {
				return false
			}
			p := &a.VO.Pairs[rng.Intn(len(a.VO.Pairs))]
			p.Lo -= 10
			p.Hi += 10
			return true
		}},
		{Name: "truncate-tail", Apply: func(a *mesh.Answer, rng *rand.Rand) bool {
			if len(a.Records) < 2 {
				return false
			}
			a.Records = a.Records[:len(a.Records)-1]
			a.VO.Pairs = a.VO.Pairs[:len(a.VO.Pairs)-1]
			return true
		}},
		{Name: "inflate-list-length", Apply: func(a *mesh.Answer, rng *rand.Rand) bool {
			if a.VO.Left.Kind != verify.BoundaryMin && a.VO.Right.Kind != verify.BoundaryMax {
				return false
			}
			a.VO.ListLen++
			return true
		}},
		{Name: "append-forged-record", Apply: func(a *mesh.Answer, rng *rand.Rand) bool {
			if len(a.Records) == 0 || len(a.VO.Pairs) == 0 {
				return false
			}
			forged := a.Records[len(a.Records)-1].Clone()
			forged.ID += 1000000
			a.Records = append(a.Records, forged)
			a.VO.Pairs = append(a.VO.Pairs, a.VO.Pairs[len(a.VO.Pairs)-1])
			return true
		}},
	}
}
