package core_test

import (
	"testing"

	"repro/internal/core"
)

func TestQueryFromComposition(t *testing.T) {
	// Composition needs the relations of later stages present in the
	// instance, so use a Prepared document (all tags recorded).
	prep, err := core.Load([]byte(bibXML)).Prepare()
	if err != nil {
		t.Fatal(err)
	}

	// Stage 1: all papers. Stage 2, relative to them: their authors.
	papers, err := prep.Query(`//paper`)
	if err != nil {
		t.Fatal(err)
	}
	if papers.SelectedTree != 2 {
		t.Fatalf("papers = %d", papers.SelectedTree)
	}
	authors, err := papers.QueryFrom(`author`)
	if err != nil {
		t.Fatal(err)
	}
	if authors.SelectedTree != 2 {
		t.Fatalf("paper authors = %d, want 2", authors.SelectedTree)
	}

	// The intermediate result stays usable: a second composition from
	// the same stage-1 result.
	titles, err := papers.QueryFrom(`title`)
	if err != nil {
		t.Fatal(err)
	}
	if titles.SelectedTree != 2 {
		t.Fatalf("paper titles = %d, want 2", titles.SelectedTree)
	}

	// Chains compose: authors' parents are the papers again.
	back, err := authors.QueryFrom(`parent::paper`)
	if err != nil {
		t.Fatal(err)
	}
	if back.SelectedTree != 2 {
		t.Fatalf("round trip = %d, want 2", back.SelectedTree)
	}
}

func TestQueryFromAbsoluteStillAnchorsAtRoot(t *testing.T) {
	prep, err := core.Load([]byte(bibXML)).Prepare()
	if err != nil {
		t.Fatal(err)
	}
	papers, err := prep.Query(`//paper`)
	if err != nil {
		t.Fatal(err)
	}
	// An absolute follow-up ignores the context.
	all, err := papers.QueryFrom(`/bib/book`)
	if err != nil {
		t.Fatal(err)
	}
	if all.SelectedTree != 1 {
		t.Fatalf("absolute follow-up = %d, want 1", all.SelectedTree)
	}
}

func TestQueryFromConditionOnContext(t *testing.T) {
	prep, err := core.Load([]byte(bibXML)).Prepare()
	if err != nil {
		t.Fatal(err)
	}
	pubs, err := prep.Query(`/bib/*`)
	if err != nil {
		t.Fatal(err)
	}
	if pubs.SelectedTree != 3 {
		t.Fatalf("pubs = %d", pubs.SelectedTree)
	}
	// Context members that have more than one author: the book.
	multi, err := pubs.QueryFrom(`self::*[author/following-sibling::author]`)
	if err != nil {
		t.Fatal(err)
	}
	if multi.SelectedTree != 1 {
		t.Fatalf("multi-author pubs = %d, want 1", multi.SelectedTree)
	}
}

func TestQueryFromUnknownTagSelectsNothing(t *testing.T) {
	doc := core.Load([]byte(bibXML))
	papers, err := doc.Query(`//paper`)
	if err != nil {
		t.Fatal(err)
	}
	// "year" was not in the stage-1 schema: empty, not an error.
	res, err := papers.QueryFrom(`year`)
	if err != nil {
		t.Fatal(err)
	}
	if res.SelectedTree != 0 {
		t.Fatalf("unknown tag selected %d", res.SelectedTree)
	}
}

// TestQueryFromChainUsesLatestSelection: each stage's context is exactly
// the previous stage's selection, never an earlier stage's.
func TestQueryFromChainUsesLatestSelection(t *testing.T) {
	prep, err := core.Load([]byte(bibXML)).Prepare()
	if err != nil {
		t.Fatal(err)
	}
	pubs, err := prep.Query(`/bib/*`)
	if err != nil {
		t.Fatal(err)
	}
	books, err := pubs.QueryFrom(`self::book`)
	if err != nil {
		t.Fatal(err)
	}
	same, err := books.QueryFrom(`self::*`)
	if err != nil {
		t.Fatal(err)
	}
	if pubs.SelectedTree != 3 || books.SelectedTree != 1 || same.SelectedTree != 1 {
		t.Fatalf("stages selected %d, %d, %d; want 3, 1, 1",
			pubs.SelectedTree, books.SelectedTree, same.SelectedTree)
	}
	if got := same.Paths(10); len(got) != 1 || got[0] != "1.1" {
		t.Fatalf("third stage paths = %v, want [1.1]", got)
	}
}
