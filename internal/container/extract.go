package container

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dag"
)

// ExtractSubtree serialises the single element subtree at the given tree
// address without reconstructing the rest of the document. The address
// uses the query engine's convention: 1-based *element* child positions
// joined with '.', relative to the virtual document node ("1" is the root
// element, "1.2" its second element child, ...; "" is invalid here since
// the document node is not an element).
//
// This is the "translate the query result to the uncompressed tree"
// operation run against compressed storage: navigation walks the DAG along
// the address, and container cursors for the subtree are computed by
// *counting* the consumption of skipped siblings (memoised per shared
// vertex) instead of replaying them — so extraction cost is proportional
// to the subtree plus the address length, not to the document prefix.
func (a *Archive) ExtractSubtree(address string) ([]byte, error) {
	if address == "" {
		return nil, fmt.Errorf("container: empty address (the document node is not extractable)")
	}
	positions, err := parseAddress(address)
	if err != nil {
		return nil, err
	}
	in := a.Skeleton
	if in.Root == dag.NilVertex {
		return nil, fmt.Errorf("container: empty archive")
	}
	infos := a.classify()
	cons := a.consumption(infos)

	// offsets[containerIdx] = chunks consumed before the target subtree.
	offsets := make([]uint64, a.Store.NumContainers())
	v := in.Root
	for _, want := range positions {
		elemPos := 0
		found := false
	runs:
		for _, e := range in.Verts[v].Edges {
			for i := uint32(0); i < e.Count; i++ {
				if infos[e.Child].kind == kindElement {
					elemPos++
					if elemPos == want {
						v = e.Child
						found = true
						break runs
					}
				}
				// Skip this child entirely: account its consumption.
				for ci, n := range cons[e.Child] {
					offsets[ci] += n
				}
			}
		}
		if !found {
			return nil, fmt.Errorf("container: address %q: no element child %d", address, want)
		}
	}
	if infos[v].kind != kindElement {
		return nil, fmt.Errorf("container: address %q does not reach an element", address)
	}

	var out bytes.Buffer
	bw := bufio.NewWriter(&out)
	cursors := make([]int, len(offsets))
	for ci, off := range offsets {
		cursors[ci] = int(off)
	}
	if err := a.replay(v, infos, cursors, &xmlWriter{bw: bw}); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// consumption computes, for every vertex, how many chunks of each
// container one expansion of its subtree consumes. Sparse per-vertex maps
// keyed by container index; computed bottom-up so shared subtrees are
// counted once.
func (a *Archive) consumption(infos []vertexInfo) []map[int]uint64 {
	in := a.Skeleton
	cons := make([]map[int]uint64, len(in.Verts))
	order := in.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		m := make(map[int]uint64)
		if ci := infos[v].cont; ci >= 0 {
			m[ci]++
		}
		for _, e := range in.Verts[v].Edges {
			for ci, n := range cons[e.Child] {
				m[ci] += n * uint64(e.Count)
			}
		}
		cons[v] = m
	}
	return cons
}

func parseAddress(address string) ([]int, error) {
	parts := strings.Split(address, ".")
	out := make([]int, len(parts))
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("container: bad address component %q", p)
		}
		out[i] = n
	}
	return out, nil
}
