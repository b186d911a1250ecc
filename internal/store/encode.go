package store

import (
	"slices"
	"strconv"
	"unicode/utf8"
)

// AppendJSON appends r's JSON body to dst and returns the extended
// slice: byte for byte what a json.Encoder with HTML escaping off
// writes for r, trailing newline included. A fan-out body carries one
// entry per catalogued document, which makes it the largest response
// the server writes; encoding it by hand skips encoding/json's
// reflection and garbage. WriteJSON calls it for the /query fan-out,
// the clustered /query and the peer scatter endpoint alike, and
// FuzzAppendJSON holds the two encodings equal.
func (r *FanoutResponse) AppendJSON(dst []byte) []byte {
	if r == nil {
		return append(dst, "null\n"...)
	}
	dst = append(dst, `{"query":`...)
	dst = appendJSONString(dst, r.Query)
	dst = append(dst, `,"docs":`...)
	if r.Docs == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.Docs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = r.Docs[i].appendJSON(dst)
		}
		dst = append(dst, ']')
	}
	if len(r.Failed) > 0 {
		dst = append(dst, `,"failed":[`...)
		for i := range r.Failed {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = r.Failed[i].appendJSON(dst)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"total_matches":`...)
	dst = strconv.AppendUint(dst, r.TotalMatches, 10)
	dst = appendIntField(dst, `,"pruned":`, int64(r.Pruned))
	dst = appendIntField(dst, `,"direct":`, int64(r.Direct))
	dst = appendIntField(dst, `,"wall_ns":`, r.WallNanos)
	dst = appendIntField(dst, `,"workers":`, int64(r.Workers))
	if r.Trace != nil {
		dst = append(dst, `,"trace":`...)
		dst = r.Trace.appendJSON(dst)
	}
	return append(dst, "}\n"...)
}

// appendJSON appends one fan-out entry, in QueryResponse's field order.
func (q *QueryResponse) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"doc":`...)
	dst = appendJSONString(dst, q.Doc)
	dst = append(dst, `,"query":`...)
	dst = appendJSONString(dst, q.Query)
	dst = append(dst, `,"matches":`...)
	dst = strconv.AppendUint(dst, q.Matches, 10)
	dst = append(dst, `,"paths":`...)
	if q.Paths == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, p := range q.Paths {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, p)
		}
		dst = append(dst, ']')
	}
	if q.Pruned {
		dst = append(dst, `,"pruned":true`...)
	}
	if q.Direct {
		dst = append(dst, `,"direct":true`...)
	}
	dst = appendIntField(dst, `,"selected_dag":`, int64(q.SelectedDAG))
	dst = appendIntField(dst, `,"verts_before":`, int64(q.VertsBefore))
	dst = appendIntField(dst, `,"edges_before":`, int64(q.EdgesBefore))
	dst = appendIntField(dst, `,"verts_after":`, int64(q.VertsAfter))
	dst = appendIntField(dst, `,"edges_after":`, int64(q.EdgesAfter))
	dst = appendIntField(dst, `,"prep_ns":`, q.PrepNanos)
	dst = appendIntField(dst, `,"eval_ns":`, q.EvalNanos)
	if q.Trace != nil {
		dst = append(dst, `,"trace":`...)
		dst = q.Trace.appendJSON(dst)
	}
	return append(dst, '}')
}

// appendJSON appends one failed-document entry.
func (e *FanoutError) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"doc":`...)
	dst = appendJSONString(dst, e.Doc)
	dst = append(dst, `,"error":`...)
	dst = appendJSONString(dst, e.Error)
	if e.RetryAfter != "" {
		dst = append(dst, `,"retry_after":`...)
		dst = appendJSONString(dst, e.RetryAfter)
	}
	return append(dst, '}')
}

// appendJSON appends a stage trace, its stage keys sorted as
// encoding/json sorts map keys.
func (t *TraceInfo) appendJSON(dst []byte) []byte {
	dst = appendIntField(dst, `{"total_ns":`, t.TotalNanos)
	dst = append(dst, `,"stages_ns":`...)
	if t.Stages == nil {
		dst = append(dst, "null"...)
	} else {
		keys := make([]string, 0, len(t.Stages))
		for k := range t.Stages {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		dst = append(dst, '{')
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, k)
			dst = append(dst, ':')
			dst = strconv.AppendInt(dst, t.Stages[k], 10)
		}
		dst = append(dst, '}')
	}
	dst = appendIntField(dst, `,"docs_considered":`, int64(t.Considered))
	if t.Pruned != 0 {
		dst = appendIntField(dst, `,"docs_pruned":`, int64(t.Pruned))
	}
	if t.Direct != 0 {
		dst = appendIntField(dst, `,"docs_direct":`, int64(t.Direct))
	}
	dst = appendIntField(dst, `,"docs_scanned":`, int64(t.Scanned))
	if t.Failed != 0 {
		dst = appendIntField(dst, `,"docs_failed":`, int64(t.Failed))
	}
	dst = appendIntField(dst, `,"bytes_decoded":`, t.BytesDecoded)
	return append(dst, '}')
}

// appendIntField appends a field prefix (separator, key and colon)
// followed by v.
func appendIntField(dst []byte, prefix string, v int64) []byte {
	return strconv.AppendInt(append(dst, prefix...), v, 10)
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string the way encoding/json does
// with HTML escaping off: '"' and '\\' backslash-escaped, control
// characters as \b \f \n \r \t or \u00XX, U+2028 and U+2029 as
// \u2028 and \u2029 (JavaScript line terminators), and each byte of
// invalid UTF-8 as \ufffd. Runs of bytes needing none of that are
// copied whole.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
