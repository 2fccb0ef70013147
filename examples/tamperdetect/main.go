// Tamperdetect: the adversary model in action. Runs the full attack
// catalog — record forgery, omissions, injections, proof truncation,
// signature corruption, subdomain replay — against both the IFMH-tree
// (both signing modes) and the signature-mesh baseline, across all three
// query types, and reports the detection matrix.
//
//	go run ./examples/tamperdetect
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"text/tabwriter"

	"aqverify"
	"aqverify/internal/core"
	"aqverify/internal/mesh"
	"aqverify/internal/tamper"
	"aqverify/internal/workload"
)

func main() {
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: 300, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	signer, err := aqverify.NewSigner(aqverify.Ed25519, aqverify.SignerOptions{})
	if err != nil {
		log.Fatal(err)
	}
	tpl := aqverify.AffineLine(0, 1)
	x := aqverify.Point{(dom.Lo[0] + dom.Hi[0]) / 2}
	queries := []aqverify.Query{
		aqverify.NewTopK(x, 6),
		aqverify.NewRange(x, -2, 2),
		aqverify.NewKNN(x, 6, 0),
	}
	rng := rand.New(rand.NewSource(1))
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	total, caught := 0, 0

	spec := aqverify.BuildSpec{Table: tbl, Template: tpl, Domain: dom, Signer: signer}
	for _, mode := range []aqverify.Mode{aqverify.OneSignature, aqverify.MultiSignature} {
		res, err := aqverify.Outsource(context.Background(), spec,
			aqverify.WithMode(mode), aqverify.WithShuffle(0))
		if err != nil {
			log.Fatal(err)
		}
		tree, pub := res.Tree, res.Public
		fmt.Fprintf(w, "\n[IFMH %v]\tattack\ttop-k\trange\tknn\n", mode)
		for _, atk := range tamper.IFMHCatalog() {
			row := fmt.Sprintf("\t%s", atk.Name)
			for _, q := range queries {
				ans, err := tree.Process(q, nil)
				if err != nil {
					log.Fatal(err)
				}
				bad := ans.Clone()
				if !atk.Apply(bad, rng) {
					row += "\t-"
					continue
				}
				total++
				if err := core.Verify(pub, q, bad.Records, &bad.VO, nil); err != nil {
					caught++
					row += "\tcaught"
				} else {
					row += "\tMISSED"
				}
			}
			fmt.Fprintln(w, row)
		}
	}

	m, err := mesh.Build(tbl, mesh.Params{Signer: signer, Domain: dom, Template: tpl})
	if err != nil {
		log.Fatal(err)
	}
	mpub := m.Public()
	fmt.Fprintf(w, "\n[signature mesh]\tattack\ttop-k\trange\tknn\n")
	for _, atk := range tamper.MeshCatalog() {
		row := fmt.Sprintf("\t%s", atk.Name)
		for _, q := range queries {
			ans, err := m.Process(q, nil)
			if err != nil {
				log.Fatal(err)
			}
			bad := ans.Clone()
			if !atk.Apply(bad, rng) {
				row += "\t-"
				continue
			}
			total++
			if err := mesh.Verify(mpub, q, bad.Records, &bad.VO, nil); err != nil {
				caught++
				row += "\tcaught"
			} else {
				row += "\tMISSED"
			}
		}
		fmt.Fprintln(w, row)
	}
	w.Flush()

	fmt.Printf("\ndetection: %d/%d applied attacks caught\n", caught, total)
	if caught != total {
		os.Exit(1)
	}
}
