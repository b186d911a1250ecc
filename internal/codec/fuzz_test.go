package codec_test

import (
	"bytes"
	"testing"

	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/corpus"
	"repro/internal/dagtest"
	"repro/internal/skeleton"
)

// corpusSeeds encodes compressed instances distilled from the synthetic
// corpus generators, so fuzzing starts from realistic wire images (deep
// TreeBank recursion, wide relational TPC-D rows, shared DBLP records)
// rather than only from toy terms.
func corpusSeeds(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte
	for _, doc := range [][]byte{
		corpus.DBLP(12, 1),
		corpus.TreeBank(8, 1),
		corpus.TPCD(6, 1),
	} {
		inst, _, err := skeleton.BuildCompressed(doc, skeleton.Options{Mode: skeleton.TagsAll})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := codec.EncodeInstance(&buf, inst); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	return seeds
}

// FuzzDecodeInstance: arbitrary bytes must decode to a valid instance or
// fail with an error — never panic, never return a broken instance.
func FuzzDecodeInstance(f *testing.F) {
	for _, term := range []string{"a", "a(b)", "a(b,b,c(b))"} {
		var buf bytes.Buffer
		if err := codec.EncodeInstance(&buf, dagtest.CompressedFromTerm(term)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, seed := range corpusSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte("XCI1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := codec.DecodeInstance(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := in.Validate(); verr != nil {
			t.Fatalf("decoder accepted invalid instance: %v", verr)
		}
	})
}

// FuzzDecodeArchive: same contract for archives; every decodable archive
// must reconstruct, derive its tag skeleton and distil string conditions
// without panicking (errors are fine: fuzzed containers need not match
// the skeleton).
func FuzzDecodeArchive(f *testing.F) {
	docs := [][]byte{[]byte(`<a/>`), []byte(`<a k="v">t<b>u</b></a>`),
		[]byte(`<r id="1" lang="ab">x<a k="ab">a<b/>b</a>ab<a k="a"><b>a</b>b</a> </r>`),
		corpus.OMIM(3, 1), corpus.Shakespeare(1, 1)}
	for _, doc := range docs {
		a, err := container.Split(doc)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := codec.EncodeArchive(&buf, a); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		// The same body as a footer-less version-1 archive: no checksum
		// stands between mutations and the derivations.
		legacy := append([]byte(nil), buf.Bytes()[:buf.Len()-8]...)
		legacy[4] = 1
		f.Add(legacy)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := codec.DecodeArchive(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		_ = a.Reconstruct(&out)
		_, _ = a.TagSkeleton()
		_, _ = a.DistillStrings([]string{"a", "ab"})
	})
}
