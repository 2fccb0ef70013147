// Admissions: the paper's motivating scenario (Fig 1) at realistic scale.
//
// A graduate school outsources 1,000 applicant records. Committee members
// score applicants as
//
//	Score(w) = GPA + Awards*w + 0.5*Papers
//
// where the free weight w (how many GPA points one award is worth) is
// chosen per query. That utility function is affine in w — slope Awards,
// intercept GPA + 0.5*Papers — so the derived-attribute template scales
// to thousands of records while exercising exactly the machinery of the
// paper's evaluation. Committee members verify every shortlist before
// using it.
//
//	go run ./examples/admissions
package main

import (
	"context"
	"fmt"
	"log"

	"aqverify"
	"aqverify/internal/workload"
)

func main() {
	table, _, err := workload.Applicants(1000, 2026)
	if err != nil {
		log.Fatal(err)
	}
	// This cycle the committee weighs an award between 1.0 and 1.3 GPA
	// points. Integer-valued awards make the full weight range [0,3]
	// extremely crossing-dense (~190k subdomains for 1,000 applicants);
	// the owner publishes the domain it actually intends to serve.
	domain, err := aqverify.NewBox([]float64{1.0}, []float64{1.3})
	if err != nil {
		log.Fatal(err)
	}
	signer, err := aqverify.NewSigner(aqverify.Ed25519, aqverify.SignerOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Multi-signature mode: committee laptops verify against one small
	// subdomain signature instead of folding the whole IMH path.
	res, err := aqverify.Outsource(context.Background(), aqverify.BuildSpec{
		Table:    table,
		Template: aqverify.AffineLine(3, 4), // derived slope/intercept columns
		Domain:   domain,
		Signer:   signer,
	}, aqverify.WithMode(aqverify.MultiSignature), aqverify.WithShuffle(7))
	if err != nil {
		log.Fatal(err)
	}
	tree, pub := res.Tree, res.Public
	st := res.Stats()[0]
	fmt.Printf("outsourced %d applicants: %d subdomains, %d signatures, ~%.1f MB structure\n\n",
		st.Records, st.Subdomains, st.Signatures, float64(st.ApproxBytes)/(1<<20))

	show := func(title string, q aqverify.Query, limit int) {
		var ctr aqverify.Counter
		ans, err := tree.Process(q, nil)
		if err != nil {
			log.Fatal(err)
		}
		if err := aqverify.Verify(pub, q, ans.Records, &ans.VO, &ctr); err != nil {
			log.Fatalf("%s: verification failed: %v", title, err)
		}
		fmt.Printf("%s — %d verified records (client did %d hashes, %d signature check(s)):\n",
			title, len(ans.Records), ctr.Hashes, ctr.SigVerifies)
		for i := len(ans.Records) - 1; i >= 0 && i >= len(ans.Records)-limit; i-- {
			r := ans.Records[i]
			score := r.Attrs[0] + r.Attrs[1]*q.X[0] + 0.5*r.Attrs[2]
			fmt.Printf("  %-18s gpa=%.2f awards=%2.0f papers=%2.0f score=%.2f\n",
				r.Payload, r.Attrs[0], r.Attrs[1], r.Attrs[2], score)
		}
		fmt.Println()
	}

	// Committee member 1 values an award at 1.15 GPA points.
	w := aqverify.Point{1.15}
	show("Top-5 applicants (w=1.15)", aqverify.NewTopK(w, 5), 5)

	// Committee member 2 wants the borderline band for a second look.
	show("Applicants scoring 18-20 (w=1.25)", aqverify.NewRange(aqverify.Point{1.25}, 18, 20), 4)

	// Committee member 3 asks for profiles closest to last year's cutoff
	// score of 15 under a conservative weight.
	show("6 applicants nearest score 15 (w=1.05)", aqverify.NewKNN(aqverify.Point{1.05}, 6, 15), 6)

	// An insider drops the top applicant from a shortlist; the committee
	// catches it.
	q := aqverify.NewTopK(w, 5)
	ans, err := tree.Process(q, nil)
	if err != nil {
		log.Fatal(err)
	}
	bad := ans.Clone()
	bad.Records = bad.Records[:len(bad.Records)-1] // hide the strongest applicant
	if err := aqverify.Verify(pub, q, bad.Records, &bad.VO, nil); err != nil {
		fmt.Printf("shortlist with the top applicant removed was rejected:\n  %v\n", err)
	} else {
		log.Fatal("incomplete shortlist was accepted")
	}
}
