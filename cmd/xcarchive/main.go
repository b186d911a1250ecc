// xcarchive packs XML documents into the compressed archive format
// (compressed skeleton + XMILL-style value containers) and unpacks them
// back.
//
//	xcarchive pack     doc.xml  doc.xca
//	xcarchive pack-dir corpusdir/ archivedir/   # every *.xml -> name.xca (+ name.xcs)
//	xcarchive pack-bundle archivedir/           # migrate loose .xca into bundle files
//	xcarchive unpack   doc.xca  doc.xml
//	xcarchive stat     doc.xca                  # sizes incl. per-container bytes
//
// pack-dir builds the on-disk layout xcserve serves from. pack and
// pack-dir also (re)generate each archive's path-synopsis sidecar
// (doc.xcs), overwriting any stale one, so a packed store prunes from
// its first open; unpack ignores sidecars (they are derived data the
// store can always rebuild). unpack decodes the whole archive in memory
// and refuses files larger than -maxmem (default 1 GiB) rather than
// silently exhausting memory; all decode errors name the offending file.
//
// pack-bundle converts a store directory in place: loose archives (and
// their sidecars) are packed back-to-back into append-only bundle files
// (*.xcb) that the store serves by pread — the cold tier for catalogs of
// many small documents, where per-file open/stat cost dominates. Bounded
// by -bundle-max-bytes per bundle; documents over -bundle-max-doc stay
// loose; nothing happens below -bundle-min-docs candidates. The
// migration is crash-safe: each bundle is sealed and synced before its
// loose sources are unlinked, and a loose archive always shadows a
// bundled copy of the same name, so an interrupted run leaves a store
// that still serves every document correctly.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/bundle"
	"repro/internal/cli"
	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/fault"
	"repro/internal/store"
	"repro/internal/synopsis"
)

var (
	maxMem       = flag.Int64("maxmem", 1<<30, "refuse to unpack archive files larger than this many bytes (0 = no limit)")
	bundleMax    = flag.Int64("bundle-max-bytes", bundle.DefaultMaxBytes, "with pack-bundle: roll to a new bundle past this many bytes")
	bundleMaxDoc = flag.Int64("bundle-max-doc", 0, "with pack-bundle: leave archives over this many bytes loose (0 = pack everything)")
	bundleMin    = flag.Int("bundle-min-docs", 2, "with pack-bundle: do nothing below this many loose archives")
)

func main() {
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) < 2 {
		usage()
		os.Exit(2)
	}
	switch args[0] {
	case "pack":
		if len(args) != 3 {
			usage()
			os.Exit(2)
		}
		pack(args[1], args[2])
	case "pack-dir":
		if len(args) != 3 {
			usage()
			os.Exit(2)
		}
		packDir(args[1], args[2])
	case "pack-bundle":
		packBundle(args[1])
	case "unpack":
		if len(args) != 3 {
			usage()
			os.Exit(2)
		}
		unpack(args[1], args[2])
	case "stat":
		stat(args[1])
	default:
		usage()
		os.Exit(2)
	}
}

// packOne reads src, splits it into an archive, writes dst plus its
// path-synopsis sidecar, and returns the archive with the in/out byte
// counts.
func packOne(src, dst string) (a *container.Archive, inBytes, outBytes int64) {
	data, err := os.ReadFile(src)
	cli.Fatal(err)
	a, err = container.Split(data)
	cli.Fatalf(src, err)
	out, err := os.Create(dst)
	cli.Fatal(err)
	cli.Fatalf(dst, codec.EncodeArchive(out, a))
	cli.Fatal(out.Close())
	st, err := os.Stat(dst)
	cli.Fatal(err)
	dict := synopsis.NewDict()
	side := synopsis.SidecarPath(dst)
	cli.Fatalf(side, synopsis.WriteSidecar(fault.OS, side, synopsis.Build(a.Skeleton, dict, synopsis.Options{}), dict, st.Size()))
	return a, int64(len(data)), st.Size()
}

func pack(src, dst string) {
	a, in, out := packOne(src, dst)
	fmt.Printf("%s: %d bytes -> %d bytes (%.1f%%); skeleton %d vertices / %d edges, %d containers\n",
		src, in, out, 100*float64(out)/float64(in),
		a.Skeleton.NumVertices(), a.Skeleton.NumEdges(), a.Store.NumContainers())
}

// packDir packs every *.xml directly under srcDir into dstDir/name.xca —
// the corpus-to-store build step for xcserve.
func packDir(srcDir, dstDir string) {
	des, err := os.ReadDir(srcDir)
	cli.Fatal(err)
	var names []string
	for _, de := range des {
		if !de.IsDir() && strings.HasSuffix(de.Name(), ".xml") {
			names = append(names, de.Name())
		}
	}
	if len(names) == 0 {
		cli.Fatal(fmt.Errorf("no *.xml files in %s", srcDir))
	}
	sort.Strings(names)
	cli.Fatal(os.MkdirAll(dstDir, 0o755))
	var inBytes, outBytes int64
	for _, name := range names {
		src := filepath.Join(srcDir, name)
		dst := filepath.Join(dstDir, strings.TrimSuffix(name, ".xml")+".xca")
		_, in, out := packOne(src, dst)
		inBytes += in
		outBytes += out
		fmt.Printf("%-40s %10d -> %10d bytes (%5.1f%%)\n",
			name, in, out, 100*float64(out)/float64(in))
	}
	fmt.Printf("packed %d documents: %d -> %d bytes (%.1f%%) into %s\n",
		len(names), inBytes, outBytes, 100*float64(outBytes)/float64(inBytes), dstDir)
}

// packBundle migrates a store directory's loose archives into bundle
// files in place, then reports the resulting cold tier.
func packBundle(dir string) {
	s, err := store.Open(dir, store.Options{})
	cli.Fatal(err)
	st, err := s.PackLoose(store.PackOptions{
		MaxBundleBytes: *bundleMax,
		MaxDocBytes:    *bundleMaxDoc,
		MinDocs:        *bundleMin,
	})
	cli.Fatalf(dir, err)
	stats := s.Stats()
	cli.Fatal(s.Close())
	if st.Packed == 0 {
		fmt.Printf("%s: nothing to pack (%d candidates, %d skipped, min %d)\n",
			dir, st.Candidates, st.Skipped, *bundleMin)
		return
	}
	fmt.Printf("%s: packed %d of %d loose archives (%d bytes) into %d new bundle file(s); %d skipped\n",
		dir, st.Packed, st.Candidates, st.PackedBytes, st.NewBundles, st.Skipped)
	fmt.Printf("cold tier now: %d bundle(s), %d documents, %d bytes (%d dead)\n",
		stats.Bundles, stats.BundledDocs, stats.BundleBytes, stats.BundleDeadBytes)
}

func unpack(src, dst string) {
	fi, err := os.Stat(src)
	cli.Fatal(err)
	if *maxMem > 0 && fi.Size() > *maxMem {
		cli.Fatal(fmt.Errorf("%s: archive is %d bytes, over the -maxmem guard of %d (unpacking decodes the whole archive in memory; raise -maxmem to proceed)",
			src, fi.Size(), *maxMem))
	}
	in, err := os.Open(src)
	cli.Fatal(err)
	a, err := codec.DecodeArchive(in)
	cli.Fatalf(src, err)
	cli.Fatal(in.Close())
	out, err := os.Create(dst)
	cli.Fatal(err)
	cli.Fatalf(dst, a.Reconstruct(out))
	cli.Fatal(out.Close())
}

func stat(src string) {
	fi, err := os.Stat(src)
	cli.Fatal(err)
	in, err := os.Open(src)
	cli.Fatal(err)
	st, err := codec.StatArchive(in)
	cli.Fatalf(src, err)
	cli.Fatal(in.Close())
	fmt.Printf("skeleton:   %d vertices, %d edges (tree size %d), %d schema names\n",
		st.SkeletonVertices, st.SkeletonEdges, st.TreeSize, st.SchemaLen)
	fmt.Printf("containers: %d, %d value bytes\n", len(st.Containers), st.ValueBytes)
	for _, c := range st.Containers {
		fmt.Printf("  %-44s %8d chunks %10d bytes\n", c.Key, c.Chunks, c.Bytes)
	}
	fmt.Printf("sidecar:    %s\n", synopsis.StatSidecar(src, fi.Size()))
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: xcarchive [flags] command args...

  pack        doc.xml doc.xca   pack one document
  pack-dir    srcdir/ dstdir/   pack every *.xml into dstdir (the xcserve store layout)
  pack-bundle storedir/         migrate loose .xca archives into bundle files (cold tier)
  unpack      doc.xca doc.xml   reconstruct the XML (guarded by -maxmem)
  stat        doc.xca           sizes, incl. per-container chunk/byte counts

flags:`)
	flag.PrintDefaults()
}
