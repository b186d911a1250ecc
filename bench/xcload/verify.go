package main

import (
	"encoding/json"
	"fmt"
)

// docAnswer and fanAnswer are the semantic fields of /query responses:
// what the answer is, not how long it took or how big the instance
// was. Decoding into them drops every timing and size field, so two
// responses to the same question compare equal.
type docAnswer struct {
	Doc     string   `json:"doc"`
	Matches uint64   `json:"matches"`
	Paths   []string `json:"paths"`
	Pruned  bool     `json:"pruned,omitempty"`
	Direct  bool     `json:"direct,omitempty"`
}

type fanAnswer struct {
	Docs         []docAnswer       `json:"docs"`
	Failed       []json.RawMessage `json:"failed,omitempty"`
	TotalMatches uint64            `json:"total_matches"`
	Pruned       int               `json:"pruned"`
	Direct       int               `json:"direct"`
}

// semanticFields reduces a /query response body to its canonical
// semantic form.
func semanticFields(kind opKind, body []byte) ([]byte, error) {
	if kind == opFanout {
		var f fanAnswer
		if err := json.Unmarshal(body, &f); err != nil {
			return nil, err
		}
		return json.Marshal(f)
	}
	var d docAnswer
	if err := json.Unmarshal(body, &d); err != nil {
		return nil, err
	}
	return json.Marshal(d)
}

func equalPaths(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkPoint compares a single-document response with the oracle.
func checkPoint(body []byte, name string, want answer) error {
	var got docAnswer
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	switch {
	case got.Doc != name:
		return fmt.Errorf("doc %q, want %q", got.Doc, name)
	case got.Matches != want.matches:
		return fmt.Errorf("matches %d, oracle %d", got.Matches, want.matches)
	case !equalPaths(got.Paths, want.paths):
		return fmt.Errorf("paths differ from oracle (%d vs %d entries)", len(got.Paths), len(want.paths))
	case got.Pruned || got.Direct:
		return fmt.Errorf("single-document answer marked pruned=%v direct=%v", got.Pruned, got.Direct)
	}
	return nil
}

// checkFanout compares a catalog-wide response with the oracle. want
// holds one answer per catalog document in name order. The server
// spends its maxPaths address budget in that order, so the expected
// paths of a document depend on those before it; a pruned document
// must have no matches, and the summary counts must agree with the
// per-document flags.
func checkFanout(body []byte, names []string, want []answer) error {
	var got fanAnswer
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if len(got.Failed) != 0 {
		return fmt.Errorf("%d documents failed: %s", len(got.Failed), got.Failed[0])
	}
	if len(got.Docs) != len(names) {
		return fmt.Errorf("%d documents answered, catalog has %d", len(got.Docs), len(names))
	}
	var total uint64
	pruned, direct := 0, 0
	remaining := maxPaths
	for i, d := range got.Docs {
		w := want[i]
		wantPaths := w.paths
		if len(wantPaths) > remaining {
			wantPaths = wantPaths[:remaining]
		}
		switch {
		case d.Doc != names[i]:
			return fmt.Errorf("entry %d is %q, want %q", i, d.Doc, names[i])
		case d.Matches != w.matches:
			return fmt.Errorf("%s: matches %d, oracle %d", d.Doc, d.Matches, w.matches)
		case d.Pruned && w.matches != 0:
			return fmt.Errorf("%s: pruned but the oracle has %d matches", d.Doc, w.matches)
		case !equalPaths(d.Paths, wantPaths):
			return fmt.Errorf("%s: paths differ from oracle (%d vs %d entries)", d.Doc, len(d.Paths), len(wantPaths))
		}
		remaining -= len(d.Paths)
		total += d.Matches
		if d.Pruned {
			pruned++
		}
		if d.Direct {
			direct++
		}
	}
	switch {
	case got.TotalMatches != total:
		return fmt.Errorf("total_matches %d, entries sum to %d", got.TotalMatches, total)
	case got.Pruned != pruned:
		return fmt.Errorf("pruned %d, %d entries flagged", got.Pruned, pruned)
	case got.Direct != direct:
		return fmt.Errorf("direct %d, %d entries flagged", got.Direct, direct)
	}
	return nil
}
