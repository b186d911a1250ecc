package store_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/store"
)

// The bibliographic database of the paper's Example 1.1, packed into an
// archive directory and then served from compressed storage: the query
// runs on the decoded archive — the XML is never re-parsed (and, on the
// serve path, never even present).
func Example() {
	doc := []byte(`<bib>` +
		`<book><title>Foundations of Databases</title><author>Abiteboul</author><author>Hull</author><author>Vianu</author></book>` +
		`<paper><title>A Relational Model for Large Shared Data Banks</title><author>Codd</author></paper>` +
		`<paper><title>The Complexity of Relational Query Languages</title><author>Vardi</author></paper>` +
		`</bib>`)

	dir, err := os.MkdirTemp("", "xca-store")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Pack (normally: xcarchive pack-dir corpus/ archives/).
	a, err := container.Split(doc)
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, "bib"+store.Ext))
	if err != nil {
		log.Fatal(err)
	}
	if err := codec.EncodeArchive(f, a); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}

	// Serve.
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.QueryCtx(context.Background(), "bib", `//paper[author["Codd"]]/title`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("matches:", res.SelectedTree)
	fmt.Println("addresses:", res.Paths(10))

	st := s.Stats()
	fmt.Printf("cache: %d/%d docs loaded, %d decode(s)\n", st.Loaded, st.Docs, st.DocMisses)
	// Output:
	// matches: 1
	// addresses: [1.2.1]
	// cache: 1/1 docs loaded, 1 decode(s)
}
