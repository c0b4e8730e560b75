package main

import (
	"fmt"
	"reflect"

	"pti/internal/conform"
	"pti/internal/fixtures"
	"pti/internal/typedesc"
)

// expMatchRate quantifies the qualitative comparison of the paper's
// related-work section (Section 2): how many (candidate, expected)
// pairs of a corpus of independently written types each conformance
// relation unifies. The implicit structural rule must subsume
// explicit subtyping and unify strictly more pairs; the name-only
// rule over-matches (unsoundly).
func expMatchRate(reps int, _ metrics) error {
	_ = reps
	corpus := []reflect.Type{
		reflect.TypeOf(fixtures.PersonA{}),
		reflect.TypeOf(fixtures.PersonB{}),
		reflect.TypeOf(fixtures.Employee{}),
		reflect.TypeOf(fixtures.Address{}),
		reflect.TypeOf(fixtures.Contact{}),
		reflect.TypeOf(fixtures.StockQuoteA{}),
		reflect.TypeOf(fixtures.StockQuoteB{}),
		reflect.TypeOf(fixtures.Swapped{}),
		reflect.TypeOf(fixtures.Swappee{}),
		reflect.TypeOf(fixtures.Node{}),
	}
	repo := typedesc.NewRepository()
	descs := make([]*typedesc.TypeDescription, len(corpus))
	for i, t := range corpus {
		d, err := typedesc.Describe(t)
		if err != nil {
			return err
		}
		descs[i] = d
		if err := repo.Add(d); err != nil {
			return err
		}
		pd, err := typedesc.Describe(reflect.PtrTo(t))
		if err != nil {
			return err
		}
		if err := repo.Add(pd); err != nil {
			return err
		}
	}

	tagged := conform.NewTagged(repo)
	for _, d := range descs {
		tagged.Tag(d.Identity)
	}
	relations := []struct {
		name string
		rel  conform.Relation
	}{
		{"implicit relaxed(2) [this paper]", conform.New(repo, conform.WithPolicy(conform.Relaxed(2)))},
		{"implicit strict (Figure 2 as written)", conform.New(repo, conform.WithPolicy(conform.Strict()))},
		{"explicit subtyping [RMI/.NET]", conform.NewExplicit(repo)},
		{"tagged structural [Läufer et al.]", tagged},
		{"name-only (unsound)", conform.NewNameOnly(conform.Relaxed(2))},
	}

	total := len(descs) * len(descs)
	fmt.Printf("  corpus: %d types, %d ordered pairs (incl. self)\n", len(descs), total)
	fmt.Printf("  %-40s %8s %10s\n", "relation", "matches", "rate")
	for _, rel := range relations {
		matches := 0
		for _, cand := range descs {
			for _, exp := range descs {
				r, err := rel.rel.Check(cand, exp)
				if err != nil {
					return err
				}
				if r.Conformant {
					matches++
				}
			}
		}
		fmt.Printf("  %-40s %8d %9.1f%%\n", rel.name, matches, 100*float64(matches)/float64(total))
	}
	fmt.Println("  expected shape: implicit relaxed subsumes explicit and unifies the most pairs soundly;")
	fmt.Println("  strict collapses to explicit on this corpus; name-only matches similar names but")
	fmt.Println("  misses subtyping and is unsound; tagged only covers opted-in same-hierarchy types.")
	return nil
}
