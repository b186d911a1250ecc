// Package algebra implements the Core XPath query operators on compressed
// instances (Section 3 of the paper): axis applications, set operations,
// and the root-conditional operator. Each operator computes one new
// selection (unary relation) of an instance.
//
// Operator costs follow the paper exactly:
//
//   - Set operations, the upward axes (self, parent, ancestor,
//     ancestor-or-self) and V|root never change the DAG (Proposition 3.3).
//     They run in linear time.
//   - The downward axes (child, descendant, descendant-or-self) and the
//     sibling axes may need to split shared vertices whose copies require
//     different selections — partial decompression. Each such application
//     at most doubles the number of vertices and edges (Propositions 3.2
//     and 3.4), which is where the 2^|Q| of Theorem 3.6 comes from.
//   - following and preceding are compositions of the above (Section 3.2).
//
// The operators (overlay.go) read an immutable dag.Frozen base shared by
// every in-flight query and write only to the query's dag.Overlay.
package algebra

import "fmt"

// Axis enumerates the XPath axes of the Core XPath fragment.
type Axis int

const (
	Self Axis = iota
	Child
	Parent
	Descendant
	DescendantOrSelf
	Ancestor
	AncestorOrSelf
	FollowingSibling
	PrecedingSibling
	Following
	Preceding
)

var axisNames = [...]string{
	Self:             "self",
	Child:            "child",
	Parent:           "parent",
	Descendant:       "descendant",
	DescendantOrSelf: "descendant-or-self",
	Ancestor:         "ancestor",
	AncestorOrSelf:   "ancestor-or-self",
	FollowingSibling: "following-sibling",
	PrecedingSibling: "preceding-sibling",
	Following:        "following",
	Preceding:        "preceding",
}

func (a Axis) String() string {
	if int(a) < len(axisNames) {
		return axisNames[a]
	}
	return fmt.Sprintf("axis(%d)", int(a))
}

// Inverse returns the reverse axis, used when compiling path conditions
// towards the root of the query tree (Section 3.1).
func (a Axis) Inverse() Axis {
	switch a {
	case Self:
		return Self
	case Child:
		return Parent
	case Parent:
		return Child
	case Descendant:
		return Ancestor
	case Ancestor:
		return Descendant
	case DescendantOrSelf:
		return AncestorOrSelf
	case AncestorOrSelf:
		return DescendantOrSelf
	case FollowingSibling:
		return PrecedingSibling
	case PrecedingSibling:
		return FollowingSibling
	case Following:
		return Preceding
	case Preceding:
		return Following
	}
	panic("algebra: unknown axis " + a.String())
}

// Upward reports whether applying the axis never decompresses the instance
// (Proposition 3.3; Corollary 3.7 relies on this).
func (a Axis) Upward() bool {
	switch a {
	case Self, Parent, Ancestor, AncestorOrSelf:
		return true
	}
	return false
}
