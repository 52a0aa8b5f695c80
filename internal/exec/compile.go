// Package exec is ThreatRaptor's TBQL query execution engine. Each event
// pattern in a TBQL query is compiled into a semantically equivalent SQL
// data query (executed on the relational backend) and each variable-length
// event path pattern into a Cypher data query (executed on the graph
// backend). The engine estimates each pattern's result cardinality from
// ingest-time store statistics, schedules data-query execution most
// selective first, and propagates intermediate results between patterns
// connected by shared entities as additional filters, so complex TBQL
// queries execute efficiently across database backends.
//
// # Prepared plans
//
// Data queries are compiled to prepared plan templates, not text (see
// plan.go): each (pattern, propagation-shape) pair compiles once into a
// relstore.Stmt or graphstore.CStmt whose propagated entity-ID sets —
// and, for Cypher, window bounds — are parameter slots bound at
// execution time. Per-shard jobs share one plan and one parameter
// binding, so a fan-out hunt parses nothing per shard, and a propagated
// constraint is a typed []int64 set probed per row (or driven through
// the column's hash index) instead of a rendered `IN (...)` literal.
// That makes giant propagation sets cheap: the default
// MaxPropagatedIDs is 25600 — 50× the old text-pipeline cap — and
// Stats.PropagationsSkipped stays 0 on fan-out hunts that used to
// overflow it. A bounded LRU PlanCache keyed by the pattern's TBQL
// normal form persists plans across hunts, so the dominant service
// workload — the same hunts re-executed — skips compile and parse
// entirely (Stats.PlanCacheHits/Misses). Stats.DataQueries is
// rendered lazily from the plan refs, with the bound sets spelled out
// as IN-lists, only when a caller actually asks (Cursor.DataQueries,
// Execute), never on the hot hunt path.
//
// There is one execution pipeline. Its correctness baseline lives in
// the tests: reference_test.go runs each pattern's rendered SQL/Cypher
// text on every shard and joins the rows by nested loops, with no
// propagation, pruning, plans, cost order, or fetch cap, and the
// equivalence suites (TestPreparedMatchesReference,
// TestStreamingJoinMatchesReference) hold every configuration to it.
//
// # Cost-based scheduling
//
// The paper's master query planner orders patterns by a syntactic
// pruning score (PruningScore: filter leaves and windows, blind to the
// data). That order is kept as the fallback, but by default the engine
// schedules from data: the stores maintain cheap cardinality sketches
// at ingest time — per-value row counts for hash-indexed columns
// (exact, a binary-search prefix cut of the index bucket), stride-
// sampled per-value counters for tracked unindexed columns like
// events.host, distinct-count growth arrays, and min/max range
// checkpoints for events.starttime (relstore/stats.go,
// graphstore/stats.go). Every estimate is answered *at the hunt's
// pinned watermark*, so costs describe exactly the epoch cut the
// cursor will read, not a store that kept growing. cost.go combines
// them per pattern: operation-type selectivity, subject/object
// attribute equality, host pins, and window fractions against the
// tracked time range multiply into an estimated row count, and the
// scheduler (costSchedule) greedily anchors on the smallest estimate,
// then repeatedly picks the connected pattern whose estimate benefits
// most from the propagated entity sets — falling back to the static
// order all-or-nothing when any pattern's stats are missing. Explain
// reports the chosen order with EstRows/CostBased per pattern, Stats
// reports CostBased/Reordered per hunt, and Engine.DisableCostOptimizer
// restores the paper's static order (the equivalence suites run both
// ways: orders may differ, match sets and rows must not).
//
// When the projection makes early termination safe — a single pattern,
// no temporal or attribute relations, no distinct collapsing, distinct
// subject/object variables — a caller-supplied row limit is also pushed
// into the per-shard data queries (Stats.FetchCapped), so a first-page
// hunt fetches page-scaled rows per shard instead of the full match
// set. Maintaining the sketches costs well under 5% of ingest (the hot
// path is a few slice iterations and one map probe per tracked column;
// see BenchmarkIngestParallelSharded), and their memory footprint is
// surfaced as stats_sketches in the daemon's /stats.
//
// # Pipeline tracing
//
// Every cursor records an obs.Trace of the pipeline stages it ran:
// analyze, snapshot, cost_optimize (annotated static/cost/reordered),
// fetch with one child span per dependency wave and one grandchild per
// executed (pattern, shard) job (annotated with its shard and, on the
// fetch span, the hunt's plan-cache hits/misses), and first_row — the
// lazy join's time to its first surfaced row. Later rows are not timed
// individually. Callers that traced earlier stages themselves (the
// daemon adds parse and page spans) pass their trace to
// ExecuteCursor and read the combined tree from Cursor.Trace;
// Engine.DisableTracing turns the default recording off
// (BenchmarkHuntRepeatedNoTrace measures the difference, held under 5%).
//
// # Query lifecycle governance
//
// Every execution path takes a context.Context (ExecuteCursor and
// Explain, where nil never cancels; StandingHunt.AdvanceContext, which
// Advance calls with context.Background()). Cancellation is
// observed at every fetch-wave boundary and, inside the streaming
// join, every joinCheckEvery (1024) candidate rows — cheap enough
// that the checks cost under 3% on the warm repeat hunt
// (BenchmarkHuntRepeated vs BenchmarkHuntRepeatedCtx). Aborts surface
// as typed errors (cancel.go): ErrHuntCancelled (wrapping the
// context.Cause, so an operator kill reads differently from a client
// disconnect), ErrHuntDeadline, and ErrJoinBudget when
// Engine.MaxJoinRows caps the candidate rows one execution may
// examine. A context interrupt suspends the join with its walk state
// intact and keeps the snapshot pinned: Cursor.SetContext installs a
// live context and clears the interrupt, and iteration resumes
// exactly where it stopped — the service layer's resumable timed-out
// pages are built on this. A budget abort is terminal: the cursor
// unpins its snapshot and SetContext does not revive it. A wave
// interrupted mid-fetch still waits for its in-flight per-shard jobs
// (they hold snapshot reads) before returning, so cancellation never
// leaks a fetch goroutine or an epoch pin.
//
// # Execution model
//
// Both stores are host-sharded (1 shard = the unsharded case). A hunt
// runs in two phases against one pinned epoch snapshot of the shards it
// touches — the relational shards its SQL patterns can reach, shard
// 0's entity table always (the broadcast entity set projection reads),
// and the graph shards only for path patterns. The snapshot is a set of
// append watermarks captured at ExecuteCursor, not held locks: all
// touched shards' watermarks are captured together so a cross-shard
// hunt reads one consistent cut, rows committed afterwards are
// invisible to the cursor, and writers never queue behind it — however
// long the cursor stays open.
//
// Fetch. Data queries run in scheduled order with constraint
// propagation; patterns not chained by a shared entity variable are
// grouped into waves, each pattern expands into one fetch per shard it
// must visit — every shard when unconstrained, a single shard when the
// pattern pins `host = '...'` (tbql.Analysis.PatternHosts) — and the
// jobs run concurrently on a small worker pool. Shard results merge in
// shard order before the join, so execution is deterministic for a
// given store. Propagated IN-lists larger than MaxPropagatedIDs are
// dropped and counted in Stats.PropagationsSkipped. Within one SQL
// fetch, relstore drives the events binding from whichever is smallest:
// its own access path (the optype bucket, a propagated ID set) or a
// semi-join reduction through a subject/object filter — the entities
// matching `s.exename LIKE '%curl%'`, answered from the column's
// hash-index dictionary, mapped to their events through the srcid/dstid
// index. A substring-filtered CTI pattern thus fetches the handful of
// events its endpoints can match instead of joining and discarding the
// whole optype bucket; rows and their order are unchanged.
//
// Join. The fetched rows are joined by a streaming hash join
// (stream.go). Bindings are slot-based: tbql.Analyze assigns dense
// integer slots to entity variables and event patterns, so a partial
// binding is a pair of fixed-size slices mutated in place — no
// per-candidate map cloning. Each join level probes a hash index built
// on the entity sides it shares with already-bound patterns, and each
// temporal/attribute relation is checked exactly once, at the first
// level where its events are bound. The join is a pull-based
// depth-first iterator wired into Cursor.Next: row N+1 is produced
// without computing row N+2, so a paginated hunt (or any early
// termination) does page-sized work regardless of the total match
// count. Execute is a drain of the same streaming path.
package exec

import (
	"fmt"
	"strings"

	"repro/internal/graphstore"
	"repro/internal/relstore"
	"repro/internal/tbql"
)

// entityTypeName maps a TBQL entity type to the stored type tag / label.
func entityTypeName(t tbql.EntityType) string {
	switch t {
	case tbql.EntProc:
		return "process"
	case tbql.EntFile:
		return "file"
	default:
		return "netconn"
	}
}

// attrColumn maps a TBQL attribute to the storage column/property name.
// The schema uses the same names, so this is the identity today; it is a
// function so the mapping stays explicit.
func attrColumn(attr string) string { return attr }

// compileSQL renders an event pattern as a SQL query over the entities
// and events tables, mirroring the paper's compilation: the event table
// joined with the entity table twice (subject and object).
// extra holds propagated constraints appended to the WHERE clause.
func compileSQL(pat *tbql.EventPattern, extra []string) string {
	var where []string
	where = append(where, "s.type = 'process'")
	where = append(where, fmt.Sprintf("o.type = '%s'", entityTypeName(pat.Obj.Type)))
	where = append(where, opPredicateSQL(pat, "e"))
	if f := filterSQL(pat.Subj.Filter, "s"); f != "" {
		where = append(where, f)
	}
	if f := filterSQL(pat.Obj.Filter, "o"); f != "" {
		where = append(where, f)
	}
	if pat.Window != nil {
		where = append(where, fmt.Sprintf("e.starttime BETWEEN %d AND %d", pat.Window.From, pat.Window.To))
	}
	where = append(where, extra...)
	return "SELECT e.id, e.srcid, e.dstid, e.starttime, e.endtime, e.amount" +
		" FROM events e" +
		" JOIN entities s ON e.srcid = s.id" +
		" JOIN entities o ON e.dstid = o.id" +
		" WHERE " + strings.Join(where, " AND ")
}

// opPredicateSQL renders the operation constraint.
func opPredicateSQL(pat *tbql.EventPattern, alias string) string {
	var terms []string
	for _, op := range pat.Ops {
		terms = append(terms, fmt.Sprintf("%s.optype = '%s'", alias, op))
	}
	pred := strings.Join(terms, " OR ")
	if len(terms) > 1 {
		pred = "(" + pred + ")"
	}
	if pat.NegOps {
		pred = "NOT " + pred
	}
	return pred
}

// filterSQL renders a TBQL filter expression against a table alias.
func filterSQL(e tbql.Expr, alias string) string {
	switch x := e.(type) {
	case nil:
		return ""
	case tbql.AndExpr:
		return "(" + filterSQL(x.L, alias) + " AND " + filterSQL(x.R, alias) + ")"
	case tbql.OrExpr:
		return "(" + filterSQL(x.L, alias) + " OR " + filterSQL(x.R, alias) + ")"
	case tbql.NotExpr:
		return "NOT " + filterSQL(x.E, alias)
	case tbql.CmpExpr:
		col := alias + "." + attrColumn(x.Attr)
		if x.IsNum {
			return fmt.Sprintf("%s %s %d", col, sqlOp(x.Op), x.Num)
		}
		lit := relstore.TextValue(x.Str).SQL()
		if x.Op == "like" {
			return fmt.Sprintf("%s LIKE %s", col, lit)
		}
		return fmt.Sprintf("%s %s %s", col, sqlOp(x.Op), lit)
	default:
		return ""
	}
}

func sqlOp(op string) string {
	if op == "!=" {
		return "!="
	}
	return op
}

// DefaultMaxHops caps unbounded path patterns.
const DefaultMaxHops = 6

// compileCypher renders a variable-length path pattern as a Cypher query:
// a var-length prefix of any operation followed by a final hop constrained
// to the pattern's operation, which matches the paper's semantics ("the
// operation type of the final hop is read").
func compileCypher(pat *tbql.EventPattern, extra []string, maxHopCap int) string {
	winFrom, winTo := "", ""
	if pat.Window != nil {
		winFrom = fmt.Sprintf("%d", pat.Window.From)
		winTo = fmt.Sprintf("%d", pat.Window.To)
	}
	return compileCypherWin(pat, extra, maxHopCap, winFrom, winTo)
}

// compileCypherWin is compileCypher with the window bounds rendered as
// the given operand strings — literals for rendered data queries, `$k`
// placeholders for prepared plan templates, where the bounds are bound
// as scalar parameters at execution time.
func compileCypherWin(pat *tbql.EventPattern, extra []string, maxHopCap int, winFrom, winTo string) string {
	minHops := pat.MinHops
	if minHops < 1 {
		minHops = 1
	}
	maxHops := pat.MaxHops
	if maxHops == 0 {
		maxHops = maxHopCap
	}

	subjProps, subjWhere := filterCypher(pat.Subj.Filter, "s")
	objProps, objWhere := filterCypher(pat.Obj.Filter, "o")

	var b strings.Builder
	fmt.Fprintf(&b, "MATCH (s:process%s)-[:event*%d..%d]->(mid)-[last:event%s]->(o:%s%s)",
		subjProps, minHops-1, maxHops-1, lastHopProps(pat), entityTypeName(pat.Obj.Type), objProps)

	var where []string
	where = append(where, subjWhere...)
	where = append(where, objWhere...)
	if len(pat.Ops) > 1 || pat.NegOps {
		where = append(where, opPredicateCypher(pat))
	}
	if pat.Window != nil {
		where = append(where,
			"last.starttime >= "+winFrom,
			"last.starttime <= "+winTo)
	}
	where = append(where, extra...)
	if len(where) > 0 {
		b.WriteString(" WHERE " + strings.Join(where, " AND "))
	}
	b.WriteString(" RETURN s.id, o.id, last.eventid, last.starttime, last.endtime, last.amount")
	return b.String()
}

// lastHopProps inlines a single positive operation into the final hop's
// property map; disjunctions and negations go to WHERE.
func lastHopProps(pat *tbql.EventPattern) string {
	if len(pat.Ops) == 1 && !pat.NegOps {
		return fmt.Sprintf(" {optype: '%s'}", pat.Ops[0])
	}
	return ""
}

func opPredicateCypher(pat *tbql.EventPattern) string {
	var terms []string
	for _, op := range pat.Ops {
		terms = append(terms, fmt.Sprintf("last.optype = '%s'", op))
	}
	pred := strings.Join(terms, " OR ")
	if len(terms) > 1 {
		pred = "(" + pred + ")"
	}
	if pat.NegOps {
		pred = "NOT " + pred
	}
	return pred
}

// filterCypher splits a filter into an inline property map (for equality
// comparisons on the top-level AND spine, which the graph store can serve
// from its property indexes) and WHERE conditions for everything else.
func filterCypher(e tbql.Expr, alias string) (props string, where []string) {
	var eqs []string
	var rest []string
	var walk func(e tbql.Expr)
	walk = func(e tbql.Expr) {
		switch x := e.(type) {
		case nil:
		case tbql.AndExpr:
			walk(x.L)
			walk(x.R)
		case tbql.CmpExpr:
			if x.Op == "=" {
				if x.IsNum {
					eqs = append(eqs, fmt.Sprintf("%s: %d", attrColumn(x.Attr), x.Num))
				} else {
					eqs = append(eqs, fmt.Sprintf("%s: %s", attrColumn(x.Attr), graphstore.TextValue(x.Str).Cypher()))
				}
				return
			}
			rest = append(rest, cmpCypher(x, alias))
		default:
			if e != nil {
				rest = append(rest, exprCypher(e, alias))
			}
		}
	}
	walk(e)
	if len(eqs) > 0 {
		props = " {" + strings.Join(eqs, ", ") + "}"
	}
	return props, rest
}

// exprCypher renders a full boolean filter expression (no inlining).
func exprCypher(e tbql.Expr, alias string) string {
	switch x := e.(type) {
	case tbql.AndExpr:
		return "(" + exprCypher(x.L, alias) + " AND " + exprCypher(x.R, alias) + ")"
	case tbql.OrExpr:
		return "(" + exprCypher(x.L, alias) + " OR " + exprCypher(x.R, alias) + ")"
	case tbql.NotExpr:
		return "NOT (" + exprCypher(x.E, alias) + ")"
	case tbql.CmpExpr:
		return cmpCypher(x, alias)
	default:
		return "1 = 1"
	}
}

// cmpCypher renders one comparison: LIKE patterns translate to CONTAINS /
// STARTS WITH / ENDS WITH when possible, else to a regular expression.
func cmpCypher(x tbql.CmpExpr, alias string) string {
	col := alias + "." + attrColumn(x.Attr)
	if x.IsNum {
		op := x.Op
		if op == "!=" {
			op = "<>"
		}
		return fmt.Sprintf("%s %s %d", col, op, x.Num)
	}
	lit := graphstore.TextValue(x.Str).Cypher()
	switch x.Op {
	case "like":
		s := x.Str
		switch {
		case strings.HasPrefix(s, "%") && strings.HasSuffix(s, "%") && !strings.ContainsAny(trimPct(s), "%_"):
			return fmt.Sprintf("%s CONTAINS %s", col, graphstore.TextValue(trimPct(s)).Cypher())
		case strings.HasSuffix(s, "%") && !strings.ContainsAny(s[:len(s)-1], "%_"):
			return fmt.Sprintf("%s STARTS WITH %s", col, graphstore.TextValue(s[:len(s)-1]).Cypher())
		case strings.HasPrefix(s, "%") && !strings.ContainsAny(s[1:], "%_"):
			return fmt.Sprintf("%s ENDS WITH %s", col, graphstore.TextValue(s[1:]).Cypher())
		default:
			return fmt.Sprintf("%s =~ %s", col, graphstore.TextValue(likeToRegex(s)).Cypher())
		}
	case "=":
		return fmt.Sprintf("%s = %s", col, lit)
	case "!=":
		return fmt.Sprintf("%s <> %s", col, lit)
	default:
		return fmt.Sprintf("%s %s %s", col, x.Op, lit)
	}
}

func trimPct(s string) string { return strings.TrimSuffix(strings.TrimPrefix(s, "%"), "%") }

// likeToRegex converts a SQL LIKE pattern to an anchored regex body.
func likeToRegex(pattern string) string {
	var b strings.Builder
	for _, r := range pattern {
		switch r {
		case '%':
			b.WriteString(".*")
		case '_':
			b.WriteString(".")
		case '.', '+', '*', '?', '(', ')', '[', ']', '{', '}', '^', '$', '|', '\\':
			b.WriteByte('\\')
			b.WriteRune(r)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// PruningScore counts the constraints declared by a pattern: one per
// comparison leaf in the subject and object filters, one for the
// operation, two for a time window. For a variable-length path pattern
// the score additionally rewards a smaller maximum path length.
func PruningScore(pat *tbql.EventPattern, maxHopCap int) int {
	score := 10 * (1 + countLeaves(pat.Subj.Filter) + countLeaves(pat.Obj.Filter))
	if pat.Window != nil {
		score += 20
	}
	if pat.IsPath {
		maxHops := pat.MaxHops
		if maxHops == 0 {
			maxHops = maxHopCap
		}
		if maxHops > 20 {
			maxHops = 20
		}
		score += 20 - maxHops
	} else {
		score += 30
	}
	return score
}

func countLeaves(e tbql.Expr) int {
	switch x := e.(type) {
	case tbql.AndExpr:
		return countLeaves(x.L) + countLeaves(x.R)
	case tbql.OrExpr:
		return countLeaves(x.L) + countLeaves(x.R)
	case tbql.NotExpr:
		return countLeaves(x.E)
	case tbql.CmpExpr:
		return 1
	default:
		return 0
	}
}
