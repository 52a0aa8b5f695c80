// Package relstore is an embedded relational database engine. It stands in
// for PostgreSQL in ThreatRaptor's storage component: system entities and
// system events are stored in typed tables with hash and ordered indexes,
// and the TBQL execution engine compiles event patterns into SQL text that
// this package parses and executes.
//
// The SQL subset supported is the one ThreatRaptor's compiler emits:
//
//	SELECT [DISTINCT] cols FROM t [alias] (JOIN t [alias] ON cond)*
//	[WHERE expr] [ORDER BY col [ASC|DESC], ...] [LIMIT n]
//
// with AND/OR/NOT, comparison operators, LIKE (with % and _ wildcards),
// and IN lists in expressions.
//
// Execution is an index nested-loop join in FROM/JOIN order: each
// binding's candidate rows come from its most selective access path
// (planLevel), and every conjunct is tested as soon as its bindings are
// bound. The first binding — the events table in the engine's data
// queries — has a second kind of access path at run time, the semi-join
// reduction: a later binding joined back to it on an INT equi-join
// (e.srcid = s.id) resolves its own rows from an indexed conjunct — an
// equality literal's hash bucket, or `col LIKE 'literal'` answered by
// matching the pattern once per distinct key of the column's hash index
// rather than once per row — filters them, and probes the first
// binding's join-column index with their join values. The first binding
// then enumerates the smallest of its own candidates and each
// reduction. Two caps keep the reduction from costing more than it
// saves: a driver is used only when it yields fewer rows than the
// current best candidate count, and a LIKE dictionary is scanned only
// when it has fewer distinct keys than that count (counted after a
// Since watermark trims the candidates). Candidates stay in ascending
// row order either way, so results, their order and early termination
// are unchanged (ExecStats.SemiJoinDrives counts the reductions taken).
package relstore

import (
	"fmt"
	"strconv"
	"strings"
)

// ColType is the type of a column.
type ColType uint8

// Supported column types.
const (
	TypeNull ColType = iota
	TypeInt
	TypeText
)

// String names the column type.
func (t ColType) String() string {
	switch t {
	case TypeInt:
		return "INT"
	case TypeText:
		return "TEXT"
	case TypeNull:
		return "NULL"
	default:
		return fmt.Sprintf("coltype(%d)", uint8(t))
	}
}

// Value is a single SQL value: an integer, a string, or NULL.
type Value struct {
	Kind ColType
	Int  int64
	Str  string
}

// NullValue is the SQL NULL.
var NullValue = Value{Kind: TypeNull}

// IntValue makes an integer value.
func IntValue(v int64) Value { return Value{Kind: TypeInt, Int: v} }

// TextValue makes a string value.
func TextValue(s string) Value { return Value{Kind: TypeText, Str: s} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.Kind == TypeNull }

// String renders the value for display.
func (v Value) String() string {
	switch v.Kind {
	case TypeInt:
		return strconv.FormatInt(v.Int, 10)
	case TypeText:
		return v.Str
	case TypeNull:
		return "NULL"
	default:
		return "?"
	}
}

// SQL renders the value as a SQL literal.
func (v Value) SQL() string {
	switch v.Kind {
	case TypeInt:
		return strconv.FormatInt(v.Int, 10)
	case TypeText:
		return "'" + strings.ReplaceAll(v.Str, "'", "''") + "'"
	default:
		return "NULL"
	}
}

// key returns a hashable representation for index lookups.
func (v Value) key() string {
	switch v.Kind {
	case TypeInt:
		return "i" + strconv.FormatInt(v.Int, 10)
	case TypeText:
		return "t" + v.Str
	default:
		return "n"
	}
}

// keyString is the Value.String rendering of the value whose key is k.
func keyString(k string) string {
	if k == "n" {
		return "NULL"
	}
	return k[1:]
}

// Compare orders two values. NULL sorts before everything; ints compare
// numerically; strings lexically; an int compared with a text value is
// compared by coercing the text to an integer when possible, else by the
// int's decimal rendering.
func Compare(a, b Value) int {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0
		case a.IsNull():
			return -1
		default:
			return 1
		}
	}
	if a.Kind == TypeInt && b.Kind == TypeInt {
		switch {
		case a.Int < b.Int:
			return -1
		case a.Int > b.Int:
			return 1
		default:
			return 0
		}
	}
	if a.Kind == TypeInt && b.Kind == TypeText {
		if n, err := strconv.ParseInt(strings.TrimSpace(b.Str), 10, 64); err == nil {
			return Compare(a, IntValue(n))
		}
		return strings.Compare(strconv.FormatInt(a.Int, 10), b.Str)
	}
	if a.Kind == TypeText && b.Kind == TypeInt {
		return -Compare(b, a)
	}
	return strings.Compare(a.Str, b.Str)
}

// Equal reports whether two values compare equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// likeMatch implements the SQL LIKE operator: '%' matches any run of
// characters (including empty), '_' matches exactly one character.
// Matching is case-sensitive, as in PostgreSQL.
func likeMatch(s, pattern string) bool {
	// Iterative two-pointer matcher with backtracking on '%'.
	si, pi := 0, 0
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			match = si
			pi++
		case star != -1:
			pi = star + 1
			match++
			si = match
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}
