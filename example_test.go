package aqverify_test

import (
	"context"
	"fmt"
	"log"

	"aqverify"
)

// Example demonstrates the full owner → server → client flow on a
// four-record database: outsource, query, verify, and catch tampering.
func Example() {
	// Owner: a table of price functions cost(x) = rate*x + base.
	schema := aqverify.Schema{
		Name:    "offers",
		Columns: []aqverify.Column{{Name: "rate"}, {Name: "base"}},
	}
	table, err := aqverify.NewTable(schema, []aqverify.Record{
		{ID: 1, Attrs: []float64{2.0, 10}},
		{ID: 2, Attrs: []float64{3.5, 1}},
		{ID: 3, Attrs: []float64{1.2, 18}},
		{ID: 4, Attrs: []float64{0.5, 25}},
	})
	if err != nil {
		log.Fatal(err)
	}
	domain, err := aqverify.NewBox([]float64{0}, []float64{20})
	if err != nil {
		log.Fatal(err)
	}
	signer, err := aqverify.NewSigner(aqverify.Ed25519, aqverify.SignerOptions{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := aqverify.Outsource(context.Background(), aqverify.BuildSpec{
		Table:    table,
		Template: aqverify.AffineLine(0, 1),
		Domain:   domain,
		Signer:   signer,
	})
	if err != nil {
		log.Fatal(err)
	}
	tree, pub := res.Tree, res.Public

	// Server: answer the two cheapest offers at x = 4 units.
	q := aqverify.NewBottomK(aqverify.Point{4}, 2)
	ans, err := tree.Process(q, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Client: verify before trusting.
	if err := aqverify.Verify(pub, q, ans.Records, &ans.VO, nil); err != nil {
		log.Fatal(err)
	}
	for _, r := range ans.Records {
		fmt.Printf("offer %d costs %.1f\n", r.ID, r.Attrs[0]*4+r.Attrs[1])
	}

	// A forged answer is rejected.
	bad := ans.Clone()
	bad.Records[0].Attrs[1] = 0
	fmt.Println("forged answer accepted:", aqverify.Verify(pub, q, bad.Records, &bad.VO, nil) == nil)

	// Output:
	// offer 2 costs 15.0
	// offer 1 costs 18.0
	// forged answer accepted: false
}
