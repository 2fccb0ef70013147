package aqverify_test

import (
	"context"
	"errors"
	"testing"

	"aqverify"
)

// TestFacadeQuickstart exercises the public API exactly as the README's
// quick start does: build, query, verify, detect tampering.
func TestFacadeQuickstart(t *testing.T) {
	schema := aqverify.Schema{
		Name:    "t",
		Columns: []aqverify.Column{{Name: "slope"}, {Name: "intercept"}},
	}
	records := []aqverify.Record{
		{ID: 1, Attrs: []float64{1, 0}},
		{ID: 2, Attrs: []float64{-1, 3}},
		{ID: 3, Attrs: []float64{0.5, 1}},
		{ID: 4, Attrs: []float64{2, -1}},
	}
	table, err := aqverify.NewTable(schema, records)
	if err != nil {
		t.Fatal(err)
	}
	domain, err := aqverify.NewBox([]float64{-2}, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	signer, err := aqverify.NewSigner(aqverify.Ed25519, aqverify.SignerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := aqverify.Outsource(context.Background(), aqverify.BuildSpec{
		Table:    table,
		Template: aqverify.AffineLine(0, 1),
		Domain:   domain,
		Signer:   signer,
	})
	if err != nil {
		t.Fatal(err)
	}
	tree, pub := res.Tree, res.Public

	x := aqverify.Point{0.5}
	for _, q := range []aqverify.Query{
		aqverify.NewTopK(x, 2),
		aqverify.NewBottomK(x, 2),
		aqverify.NewRange(x, 0, 2),
		aqverify.NewKNN(x, 2, 1),
	} {
		ans, err := tree.Process(q, nil)
		if err != nil {
			t.Fatalf("%v: %v", q.Kind, err)
		}
		if err := aqverify.Verify(pub, q, ans.Records, &ans.VO, nil); err != nil {
			t.Fatalf("%v: %v", q.Kind, err)
		}
		// Oracle agreement through the facade.
		want, err := aqverify.Exec(table, aqverify.AffineLine(0, 1), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(ans.Records) != len(want.Records) {
			t.Fatalf("%v: %d records, oracle %d", q.Kind, len(ans.Records), len(want.Records))
		}
	}

	// Tampering is rejected with the exported sentinel.
	q := aqverify.NewTopK(x, 2)
	ans, err := tree.Process(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := ans.Clone()
	bad.Records[0].Attrs[0] += 1
	if err := aqverify.Verify(pub, q, bad.Records, &bad.VO, nil); !errors.Is(err, aqverify.ErrVerification) {
		t.Fatalf("tampering not rejected with ErrVerification: %v", err)
	}
}

// TestFacadeStats exposes the structure statistics.
func TestFacadeStats(t *testing.T) {
	schema := aqverify.Schema{
		Name:    "t",
		Columns: []aqverify.Column{{Name: "slope"}, {Name: "intercept"}},
	}
	records := []aqverify.Record{
		{ID: 1, Attrs: []float64{1, 0}},
		{ID: 2, Attrs: []float64{-1, 3}},
	}
	table, _ := aqverify.NewTable(schema, records)
	domain, _ := aqverify.NewBox([]float64{-2}, []float64{2})
	signer, _ := aqverify.NewSigner(aqverify.Ed25519, aqverify.SignerOptions{})
	res, err := aqverify.Outsource(context.Background(), aqverify.BuildSpec{
		Table: table, Template: aqverify.AffineLine(0, 1), Domain: domain, Signer: signer,
	}, aqverify.WithMode(aqverify.MultiSignature))
	if err != nil {
		t.Fatal(err)
	}
	var st aqverify.TreeStats = res.Tree.Stats()
	if st.Records != 2 || st.Subdomains != 2 || st.Signatures != 2 {
		t.Errorf("stats = %+v", st)
	}
}
