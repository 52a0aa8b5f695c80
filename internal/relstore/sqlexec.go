package relstore

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Rows is a query result set.
type Rows struct {
	Cols []string
	Data [][]Value
}

// ExecStats reports how a query was executed, for plan inspection and the
// efficiency experiments.
type ExecStats struct {
	RowsScanned   int // rows visited across all join levels
	IndexLookups  int // candidate sets served by an index
	FullScans     int // candidate sets served by a full table scan
	TuplesEmitted int // result rows before distinct/order/limit
	// SemiJoinDrives counts executions whose driving binding enumerated a
	// semi-join reduction instead of its own access path's candidates.
	SemiJoinDrives int
}

// Query parses and executes a SELECT statement against the database.
func (db *DB) Query(sql string) (*Rows, error) {
	rows, _, err := db.QueryStats(sql)
	return rows, err
}

// QueryStats is Query plus execution statistics.
func (db *DB) QueryStats(sql string) (*Rows, ExecStats, error) {
	stmt, err := ParseSQL(sql)
	if err != nil {
		return nil, ExecStats{}, err
	}
	return db.Exec(stmt)
}

// Exec executes a parsed statement.
func (db *DB) Exec(stmt *SelectStmt) (*Rows, ExecStats, error) {
	st, err := db.PrepareParsed(stmt)
	if err != nil {
		return nil, ExecStats{}, err
	}
	return st.exec(nil, nil)
}

// Prepare parses a SELECT statement and derives its execution plan once:
// table bindings, column resolution, compiled conjunct closures, the
// per-level access paths, and the projection. The returned Stmt executes
// with zero parsing — Query re-runs it under the statement's table
// locks, QueryView runs it against an epoch view — with per-execution
// values (the engine's propagated entity-ID sets) bound through Params
// instead of being rendered into new SQL text. A Stmt is immutable
// after Prepare and safe for concurrent executions.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	stmt, err := ParseSQL(sql)
	if err != nil {
		return nil, err
	}
	return db.PrepareParsed(stmt)
}

// PrepareParsed is Prepare for an already-parsed statement. The
// statement AST is retained and must not be modified afterwards.
func (db *DB) PrepareParsed(stmt *SelectStmt) (*Stmt, error) {
	st := &Stmt{db: db, stmt: stmt}
	if err := st.compile(); err != nil {
		return nil, err
	}
	return st, nil
}

// Stmt is a prepared SELECT statement: the parse tree plus everything
// the executor can derive from the schema alone — bindings, compiled
// predicates, per-level access plans, resolved projection and order
// keys. Executing a Stmt does no parsing and no plan derivation; only
// row storage (the live table or an epoch view) and parameter values
// vary per execution.
//
// A Stmt prepared on one database may execute against a View of
// another database whose tables have identical schemas (the sharded
// store: every shard is bootstrapped with the same tables), which is
// how the execution engine compiles a pattern's data query once and
// fans it out across shards.
type Stmt struct {
	db   *DB
	stmt *SelectStmt

	binds   []stmtBind
	conjs   []conjunct
	conjsAt [][]int      // conjsAt[level] lists conjunct indexes with maxRef == level
	plans   []accessPlan // per-level access path
	// semis are the semi-join reductions the driving binding (level 0)
	// may enumerate instead of plans[0]'s candidates.
	semis   []semiJoin
	project []resolvedCol
	// orderKeys are the projected positions of the ORDER BY keys,
	// resolved at prepare time.
	orderKeys []int
	// nSet is the number of ID-set parameter slots the statement
	// references (max slot + 1); executions must bind at least that many.
	nSet int

	// colCache memoizes resolveCol during compilation.
	colCache map[ColRef]resolvedRef
}

// stmtBind is one table instance in the FROM/JOIN list, resolved at
// prepare time. table is the prepare-time table — the schema authority
// for column resolution; executions against a view re-resolve the
// runtime table by name.
type stmtBind struct {
	name      string // bind name (alias or table name), lowercase
	tableName string // underlying table name, lowercase
	table     *Table
}

// conjunct is one top-level AND-ed condition with the set of bindings it
// references.
type conjunct struct {
	expr Expr
	refs map[int]bool // binding indexes referenced
	// maxRef is the highest binding index referenced; the conjunct is
	// evaluated as soon as that binding is bound.
	maxRef int
	// fn is the compiled form with pre-resolved column references,
	// evaluated on the per-row hot path.
	fn boolFn
}

// boolFn evaluates a compiled boolean expression for a bound tuple.
type boolFn func(rt *stmtRun, tuple []int) bool

// valFn evaluates a compiled operand for a bound tuple.
type valFn func(rt *stmtRun, tuple []int) Value

// accessPlan describes how to enumerate candidate rows at a join level.
type accessPlan struct {
	kind byte // 'l' eq-literal, 'j' eq-join, 'p' param set, 'n' in-list, 'r' range, 's' scan
	col  int  // column on this level's table
	lit  Value
	// in-list values.
	vals []Value
	// param-set slot.
	slot int
	// eq-join source.
	otherBind, otherCol int
	// range bounds.
	lo, hi       *Value
	loInc, hiInc bool
}

// semiJoin reduces the driving binding (level 0) through a later
// binding joined back to it by an equi-join on two INT columns (e.srcid
// = s.id): the later binding's rows are resolved from an indexed
// conjunct, filtered by all its single-binding conjuncts, and their join
// values probe level 0's hash index on its join column. Only level-0
// rows found that way can extend to a result tuple.
type semiJoin struct {
	bind     int // the reducing binding
	col      int // its join column
	driveCol int // level 0's join column
	// drivers are bind's indexable conjuncts: equality literals first
	// (a bucket probe), then LIKE literals (a dictionary scan).
	drivers []semiDriver
	// filters are the conjuncts that reference bind alone.
	filters []int
}

// semiDriver is one indexable conjunct `col = literal` or
// `col LIKE literal`.
type semiDriver struct {
	col  int
	like bool
	key  string // equality: the literal's index key; LIKE: the pattern
}

type resolvedRef struct {
	bind, col int
	err       error
}

type resolvedCol struct {
	bind int
	col  int
	name string
}

// stmtRun is the per-execution state of a prepared statement: the row
// storage each binding reads (live rows under the statement's table
// locks, or an epoch view's captured prefixes), the runtime tables the
// index probes go to, the bound parameters, and the result
// accumulator. Compiled closures receive the stmtRun, so one Stmt
// serves any number of concurrent executions.
type stmtRun struct {
	st     *Stmt
	view   *View // nil: locked execution on st.db
	params *Params
	tables []*Table
	rows   [][][]Value
	stats  ExecStats

	out      [][]Value
	limitHit bool
	// rowCap is a per-execution result cap (0 = none), pushed down by
	// callers that will read at most that many rows (the engine's
	// fetch-side row caps). Unlike the statement's own LIMIT it is not
	// part of the plan: the same prepared Stmt runs capped for a
	// first-page hunt and uncapped for a full drain.
	rowCap int
	// minRows, when non-nil, restricts each binding to row positions
	// >= minRows[level]: the delta rows appended after a previous
	// watermark (QueryViewSince). Bindings not under a Since restriction
	// hold 0.
	minRows []int
}

// compile derives everything schema-determined: bindings, conjuncts,
// projection, order keys, per-level conjunct lists and access plans.
func (st *Stmt) compile() error {
	// Bind tables.
	refs := make([]TableRef, 0, 1+len(st.stmt.Joins))
	refs = append(refs, st.stmt.From)
	for _, j := range st.stmt.Joins {
		refs = append(refs, j.Ref)
	}
	seen := map[string]bool{}
	for _, r := range refs {
		t := st.db.Table(r.Name)
		if t == nil {
			return fmt.Errorf("relstore: no table %q", r.Name)
		}
		bn := r.bindName()
		if seen[bn] {
			return fmt.Errorf("relstore: duplicate table binding %q", bn)
		}
		seen[bn] = true
		st.binds = append(st.binds, stmtBind{name: bn, tableName: strings.ToLower(r.Name), table: t})
	}

	// Collect conjuncts from JOIN ON and WHERE clauses.
	var all []Expr
	for _, j := range st.stmt.Joins {
		all = append(all, splitAnd(j.On)...)
	}
	if st.stmt.Where != nil {
		all = append(all, splitAnd(st.stmt.Where)...)
	}
	for _, e := range all {
		refs := map[int]bool{}
		if err := st.collectRefs(e, refs); err != nil {
			return err
		}
		maxRef := 0
		for bi := range refs {
			if bi > maxRef {
				maxRef = bi
			}
		}
		fn, err := st.compileBool(e)
		if err != nil {
			return err
		}
		st.conjs = append(st.conjs, conjunct{expr: e, refs: refs, maxRef: maxRef, fn: fn})
	}

	// Resolve projection.
	if st.stmt.Star {
		for bi, b := range st.binds {
			for ci, c := range b.table.schema.Columns {
				name := c.Name
				if len(st.binds) > 1 {
					name = b.name + "." + c.Name
				}
				st.project = append(st.project, resolvedCol{bind: bi, col: ci, name: name})
			}
		}
	} else {
		for _, item := range st.stmt.Items {
			bi, ci, err := st.resolveCol(item.Ref)
			if err != nil {
				return err
			}
			name := item.Alias
			if name == "" {
				name = item.Ref.String()
			}
			st.project = append(st.project, resolvedCol{bind: bi, col: ci, name: name})
		}
	}

	// Resolve ORDER BY keys against the projection.
	for _, o := range st.stmt.OrderBy {
		if _, _, err := st.resolveCol(o.Ref); err != nil {
			return err
		}
		ki := st.findProjected(o.Ref)
		if ki < 0 {
			return fmt.Errorf("relstore: ORDER BY column %s must appear in the select list", o.Ref)
		}
		st.orderKeys = append(st.orderKeys, ki)
	}

	// Precompute per-level conjunct lists and access plans.
	st.conjsAt = make([][]int, len(st.binds))
	for ci, c := range st.conjs {
		st.conjsAt[c.maxRef] = append(st.conjsAt[c.maxRef], ci)
	}
	st.plans = make([]accessPlan, len(st.binds))
	for level := range st.binds {
		st.plans[level] = st.planLevel(level)
	}
	st.semis = st.planSemiJoins()
	return nil
}

// NumSetParams reports how many ID-set parameter slots the statement
// references; executions must bind at least that many via
// Params.BindIDSet.
func (st *Stmt) NumSetParams() int { return st.nSet }

// Query executes the prepared statement against its database under the
// statement's table locks (one consistent snapshot of the live rows).
func (st *Stmt) Query(params *Params) (*Rows, error) {
	rows, _, err := st.exec(nil, params)
	return rows, err
}

// QueryStats is Query plus execution statistics.
func (st *Stmt) QueryStats(params *Params) (*Rows, ExecStats, error) {
	return st.exec(nil, params)
}

// QueryView executes the prepared statement against an epoch view with
// zero parsing and no statement-long locks: the view's captured row
// prefixes are the statement's snapshot, and index probes lock only for
// the duration of the probe. The view may belong to a different
// database than the one the statement was prepared on, as long as the
// bound tables exist there with identical schemas (shards of one
// sharded store do).
func (st *Stmt) QueryView(v *View, params *Params) (*Rows, error) {
	rows, _, err := st.exec(v, params)
	return rows, err
}

// QueryViewStats is QueryView plus execution statistics.
func (st *Stmt) QueryViewStats(v *View, params *Params) (*Rows, ExecStats, error) {
	return st.exec(v, params)
}

// QueryViewLimit is QueryView with a per-execution result cap: at most
// limit rows of the statement's full result are produced (limit <= 0
// means uncapped). When the statement has no ORDER BY and no DISTINCT
// the executor stops joining as soon as the cap is reached, so a
// page-bounded fetch over a huge table does page-scaled work; otherwise
// the cap only truncates the finished result.
func (st *Stmt) QueryViewLimit(v *View, params *Params, limit int) (*Rows, error) {
	rows, _, err := st.execCap(v, params, limit)
	return rows, err
}

// QueryViewSince executes the prepared statement against an epoch view
// with the named table's binding(s) restricted to row positions >=
// minRow — the rows appended after a previous watermark. For a
// statement without ORDER BY, DISTINCT, or LIMIT whose result tuples
// each bind the named table exactly once, the result is exactly the
// full QueryView result minus the result over the view clamped at
// minRow: the per-commit delta fetch the incremental standing-hunt
// evaluator runs. Positions are the table's stable append-only row
// positions, so a watermark taken from one view's NumRows carries to
// any later view of the same shard.
func (st *Stmt) QueryViewSince(v *View, params *Params, table string, minRow int) (*Rows, error) {
	rows, _, err := st.execWith(v, params, execOpts{sinceTable: strings.ToLower(table), sinceRow: minRow})
	return rows, err
}

// execOpts carries the per-execution knobs that are not part of the
// prepared plan.
type execOpts struct {
	rowCap     int
	sinceTable string // lowercase; "" = no delta restriction
	sinceRow   int
}

// exec runs one uncapped execution of the prepared statement.
func (st *Stmt) exec(view *View, params *Params) (*Rows, ExecStats, error) {
	return st.execCap(view, params, 0)
}

// execCap runs one execution of the prepared statement with an
// optional per-execution row cap.
func (st *Stmt) execCap(view *View, params *Params, rowCap int) (*Rows, ExecStats, error) {
	return st.execWith(view, params, execOpts{rowCap: rowCap})
}

// execWith runs one execution of the prepared statement.
func (st *Stmt) execWith(view *View, params *Params, opts execOpts) (*Rows, ExecStats, error) {
	rowCap := opts.rowCap
	if st.nSet > params.NumSets() {
		return nil, ExecStats{}, fmt.Errorf("relstore: statement wants %d set parameter(s), got %d",
			st.nSet, params.NumSets())
	}
	rt := &stmtRun{
		st:     st,
		view:   view,
		params: params,
		tables: make([]*Table, len(st.binds)),
		rows:   make([][][]Value, len(st.binds)),
	}
	if rowCap > 0 {
		rt.rowCap = rowCap
	}
	if opts.sinceTable != "" {
		if view == nil {
			return nil, rt.stats, fmt.Errorf("relstore: Since execution requires an epoch view")
		}
		rt.minRows = make([]int, len(st.binds))
		found := false
		for i, b := range st.binds {
			if b.tableName == opts.sinceTable {
				rt.minRows[i] = opts.sinceRow
				found = true
			}
		}
		if !found {
			return nil, rt.stats, fmt.Errorf("relstore: statement does not bind table %q", opts.sinceTable)
		}
	}

	if view != nil {
		for i, b := range st.binds {
			tv := view.Table(b.tableName)
			if tv == nil {
				return nil, rt.stats, fmt.Errorf("relstore: no table %q", b.tableName)
			}
			if tv.t != b.table && !schemaCompatible(tv.t.schema, b.table.schema) {
				return nil, rt.stats, fmt.Errorf("relstore: table %q in the view does not match the prepared schema", b.tableName)
			}
			rt.tables[i] = tv.t
			rt.rows[i] = tv.rows
		}
	} else {
		// Hold the read lock of every bound table for the whole statement
		// so the query sees a consistent snapshot while writers ingest.
		// Tables are deduplicated (a self join binds the same table twice,
		// and a recursive RLock could deadlock behind a queued writer) and
		// locked in table-name order, so two statements binding the same
		// tables in opposite FROM/JOIN orders cannot cycle with queued
		// writers.
		seenTbl := make(map[*Table]bool, len(st.binds))
		locked := make([]*Table, 0, len(st.binds))
		for _, b := range st.binds {
			if !seenTbl[b.table] {
				seenTbl[b.table] = true
				locked = append(locked, b.table)
			}
		}
		sort.Slice(locked, func(i, j int) bool {
			return strings.ToLower(locked[i].schema.Name) < strings.ToLower(locked[j].schema.Name)
		})
		for _, t := range locked {
			t.mu.RLock()
			defer t.mu.RUnlock()
		}
		// Row storage is read through the run state; under the held locks
		// the live rows are the statement's snapshot.
		for i, b := range st.binds {
			rt.tables[i] = b.table
			rt.rows[i] = b.table.rows
		}
	}

	tuple := make([]int, len(st.binds))
	if err := rt.join(0, tuple); err != nil {
		return nil, rt.stats, err
	}

	// ORDER BY (projection already applied; keys were resolved to
	// projected positions at prepare time).
	if len(st.orderKeys) > 0 {
		sort.SliceStable(rt.out, func(a, b int) bool {
			for i, ki := range st.orderKeys {
				c := Compare(rt.out[a][ki], rt.out[b][ki])
				if c == 0 {
					continue
				}
				if st.stmt.OrderBy[i].Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}

	// DISTINCT.
	if st.stmt.Distinct {
		seen := map[string]bool{}
		dst := rt.out[:0]
		for _, row := range rt.out {
			var b strings.Builder
			for _, v := range row {
				b.WriteString(v.key())
				b.WriteByte('\x00')
			}
			k := b.String()
			if !seen[k] {
				seen[k] = true
				dst = append(dst, row)
			}
		}
		rt.out = dst
	}

	// LIMIT.
	if st.stmt.Limit >= 0 && len(rt.out) > st.stmt.Limit {
		rt.out = rt.out[:st.stmt.Limit]
	}

	// Per-execution row cap: applied after ORDER BY/DISTINCT/LIMIT so a
	// capped execution always returns a prefix of the uncapped result.
	if rt.rowCap > 0 && len(rt.out) > rt.rowCap {
		rt.out = rt.out[:rt.rowCap]
	}

	cols := make([]string, len(st.project))
	for i, p := range st.project {
		cols[i] = p.name
	}
	return &Rows{Cols: cols, Data: rt.out}, rt.stats, nil
}

// schemaCompatible reports whether two tables share a column layout, so
// a statement prepared on one can execute against a view of the other.
func schemaCompatible(a, b Schema) bool {
	if len(a.Columns) != len(b.Columns) {
		return false
	}
	for i := range a.Columns {
		if !strings.EqualFold(a.Columns[i].Name, b.Columns[i].Name) || a.Columns[i].Type != b.Columns[i].Type {
			return false
		}
	}
	return true
}

// limitFriendly reports whether early termination on LIMIT is safe
// (no ORDER BY that needs the full set).
func (st *Stmt) limitFriendly() bool {
	return len(st.stmt.OrderBy) == 0
}

func (st *Stmt) findProjected(ref ColRef) int {
	bi, ci, err := st.resolveCol(ref)
	if err != nil {
		return -1
	}
	for i, p := range st.project {
		if p.bind == bi && p.col == ci {
			return i
		}
	}
	return -1
}

// join binds tables level by level, using indexes where possible and
// evaluating each conjunct as soon as all its bindings are bound.
func (rt *stmtRun) join(level int, tuple []int) error {
	if rt.limitHit {
		return nil
	}
	st := rt.st
	if level == len(st.binds) {
		row := make([]Value, len(st.project))
		for i, p := range st.project {
			row[i] = rt.rows[p.bind][tuple[p.bind]][p.col]
		}
		rt.out = append(rt.out, row)
		rt.stats.TuplesEmitted++
		if !st.stmt.Distinct && st.limitFriendly() {
			if st.stmt.Limit >= 0 && len(rt.out) >= st.stmt.Limit {
				rt.limitHit = true
			}
			if rt.rowCap > 0 && len(rt.out) >= rt.rowCap {
				rt.limitHit = true
			}
		}
		return nil
	}

	cands, err := rt.candidates(level, tuple)
	if err != nil {
		return err
	}
	if level == 0 {
		cands = rt.semiJoinDrive(cands, tuple)
	}
	min := 0
	if rt.minRows != nil {
		min = rt.minRows[level]
	}
	for _, rid := range cands {
		if rid < min {
			continue
		}
		tuple[level] = rid
		rt.stats.RowsScanned++
		ok := true
		for _, ci := range st.conjsAt[level] {
			if !st.conjs[ci].fn(rt, tuple) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if err := rt.join(level+1, tuple); err != nil {
			return err
		}
		if rt.limitHit {
			return nil
		}
	}
	return nil
}

// planLevel picks the most selective access path for the table at level
// (chosen once per prepared statement; equi-join and parameter-set
// lookups read their values at run time). At level 0 the path is only
// the default: at run time a semi-join reduction (planSemiJoins) drives
// the level instead when it yields fewer rows, so a selective filter on
// a later binding — `s.exename LIKE '%curl%'` — narrows the events
// enumerated rather than being tested once per joined event.
func (st *Stmt) planLevel(level int) accessPlan {
	// 1. Equi-join with an already-bound table: the per-tuple lookup
	// value makes this far more selective than a constant predicate
	// (classic index nested-loop join).
	for _, c := range st.conjs {
		myCol, otherBind, otherCol, ok := st.eqJoin(c.expr, level)
		if ok && otherBind < level {
			return accessPlan{kind: 'j', col: myCol, otherBind: otherBind, otherCol: otherCol}
		}
	}
	// 2. Bound ID-set parameter on this table's column: the propagated
	// entity-ID constraint. Selectivity is decided at run time — small
	// sets drive per-ID hash-index probes, large sets a set-filtered
	// scan — so the same plan serves both a 10-ID and a 50k-ID binding.
	for _, c := range st.conjs {
		in, ok := c.expr.(InParamExpr)
		if !ok || in.Neg || len(c.refs) != 1 || !c.refs[level] {
			continue
		}
		ce, okc := in.L.(ColExpr)
		if !okc {
			continue
		}
		bi, ci, err := st.resolveCol(ce.Ref)
		if err != nil || bi != level {
			continue
		}
		return accessPlan{kind: 'p', col: ci, slot: in.Slot}
	}
	// 3. Small IN-list on this table's column: the union of per-value
	// index lookups is usually tighter than any single-value bucket.
	for _, c := range st.conjs {
		in, ok := c.expr.(InExpr)
		if !ok || in.Neg || len(in.Vals) > 128 || len(c.refs) != 1 || !c.refs[level] {
			continue
		}
		ce, okc := in.L.(ColExpr)
		if !okc {
			continue
		}
		bi, ci, err := st.resolveCol(ce.Ref)
		if err != nil || bi != level {
			continue
		}
		return accessPlan{kind: 'n', col: ci, vals: in.Vals}
	}
	// 4. Equality with a literal on this table's column.
	for _, c := range st.conjs {
		col, lit, ok := st.eqLiteral(c.expr, level)
		if ok && len(c.refs) == 1 && c.refs[level] {
			return accessPlan{kind: 'l', col: col, lit: lit}
		}
	}
	// 5. Range predicate with literals.
	for _, c := range st.conjs {
		col, lo, hi, loInc, hiInc, ok := st.rangeLiteral(c.expr, level)
		if ok && len(c.refs) == 1 && c.refs[level] {
			return accessPlan{kind: 'r', col: col, lo: lo, hi: hi, loInc: loInc, hiInc: hiInc}
		}
	}
	// 6. Full scan.
	return accessPlan{kind: 's'}
}

// paramProbeDiv bounds when a bound ID set drives per-ID index probes
// instead of a set-filtered scan: probing costs one index lookup per ID,
// so beyond 1/paramProbeDiv of the table's rows a single scan is cheaper.
const paramProbeDiv = 4

// candidates enumerates candidate rows at a level per its access plan.
func (rt *stmtRun) candidates(level int, tuple []int) ([]int, error) {
	st := rt.st
	t := rt.tables[level]
	rows := rt.rows[level]
	plan := st.plans[level]
	switch plan.kind {
	case 'l':
		ids, indexed := rt.lookupEq(level, plan.col, plan.lit)
		rt.countAccess(indexed)
		return ids, nil
	case 'j':
		v := rt.rows[plan.otherBind][tuple[plan.otherBind]][plan.otherCol]
		ids, indexed := rt.lookupEq(level, plan.col, v)
		rt.countAccess(indexed)
		return ids, nil
	case 'p':
		set := rt.params.setAt(plan.slot)
		// Small sets: one hash-index probe per ID under a single brief
		// lock — the index-driven access path for propagated constraints.
		if len(set.ids) <= len(rows)/paramProbeDiv {
			var ids []int
			var ok bool
			if rt.view != nil {
				ids, ok = t.lookupEqIntsView(plan.col, set.ids, rows, 0)
			} else {
				ids, ok = t.lookupEqInts(plan.col, set.ids, 0)
			}
			if ok {
				rt.stats.IndexLookups++
				return ids, nil
			}
		}
		// Large sets (or no index): scan the level once, filtering by
		// set membership — still no text rendering, no parse, and one
		// binary search per row.
		rt.stats.FullScans++
		var ids []int
		for rid, row := range rows {
			if v := row[plan.col]; v.Kind == TypeInt && set.has(v.Int) {
				ids = append(ids, rid)
			}
		}
		return ids, nil
	case 'n':
		var ids []int
		seen := map[int]bool{}
		indexed := true
		for _, v := range plan.vals {
			got, idx := rt.lookupEq(level, plan.col, v)
			indexed = indexed && idx
			for _, id := range got {
				if !seen[id] {
					seen[id] = true
					ids = append(ids, id)
				}
			}
		}
		sort.Ints(ids)
		rt.countAccess(indexed)
		return ids, nil
	case 'r':
		var ids []int
		var indexed bool
		if rt.view != nil {
			ids, indexed = t.lookupRangeView(plan.col, plan.lo, plan.hi, plan.loInc, plan.hiInc, rows)
		} else {
			ids, indexed = t.lookupRange(plan.col, plan.lo, plan.hi, plan.loInc, plan.hiInc)
		}
		rt.countAccess(indexed)
		return ids, nil
	default:
		rt.stats.FullScans++
		// A Since restriction turns the full scan into a suffix scan: the
		// hot path of a delta fetch, where the events binding enumerates
		// only the rows appended since the previous watermark.
		min := 0
		if rt.minRows != nil {
			min = rt.minRows[level]
		}
		if min > len(rows) {
			min = len(rows)
		}
		ids := make([]int, len(rows)-min)
		for i := range ids {
			ids[i] = min + i
		}
		return ids, nil
	}
}

// planSemiJoins derives the semi-join reductions of the driving binding:
// one per later binding whose access plan is an equi-join on two INT
// columns back to level 0 and which has an indexable driver conjunct —
// an equality literal of its column's type, or a non-negated
// `col LIKE literal`. Reductions are planned only when level 0's own
// path enumerates, in ascending row order, a superset of the rows its
// conjuncts accept, so driving the level from a reduction instead skips
// only rows that cannot join: not for an ordered-index range (value
// order), nor for an equality literal of another type than its column
// (the hash probe misses rows the comparison would coerce).
func (st *Stmt) planSemiJoins() []semiJoin {
	// A NULL literal's bucket is a superset of the no rows `= NULL` accepts.
	if p := st.plans[0]; p.kind == 'r' || (p.kind == 'l' && !p.lit.IsNull() && p.lit.Kind != st.colType(0, p.col)) {
		return nil
	}
	var out []semiJoin
	for b := 1; b < len(st.binds); b++ {
		p := st.plans[b]
		if p.kind != 'j' || p.otherBind != 0 ||
			st.colType(b, p.col) != TypeInt || st.colType(0, p.otherCol) != TypeInt {
			continue
		}
		sj := semiJoin{bind: b, col: p.col, driveCol: p.otherCol}
		var likes []semiDriver
		for ci, c := range st.conjs {
			if len(c.refs) != 1 || !c.refs[b] {
				continue
			}
			sj.filters = append(sj.filters, ci)
			if col, lit, ok := st.eqLiteral(c.expr, b); ok && lit.Kind == st.colType(b, col) {
				sj.drivers = append(sj.drivers, semiDriver{col: col, key: lit.key()})
			} else if col, pattern, ok := st.likeLiteral(c.expr, b); ok {
				likes = append(likes, semiDriver{col: col, like: true, key: pattern})
			}
		}
		sj.drivers = append(sj.drivers, likes...)
		if len(sj.drivers) > 0 {
			out = append(out, sj)
		}
	}
	return out
}

// colType is the declared type of a binding's column.
func (st *Stmt) colType(bind, col int) ColType {
	return st.binds[bind].table.schema.Columns[col].Type
}

// semiJoinDrive returns the rows level 0 enumerates: its own access
// path's candidates, or the smallest semi-join reduction when one is
// smaller. Two caps keep a reduction from costing more than it saves: a
// driver is used only when its rows are fewer than the current best
// candidate count, and a LIKE dictionary is scanned only when it has
// fewer distinct keys than that count. The candidates are trimmed to a
// Since watermark first, so a delta fetch compares against its delta,
// not the whole bucket. Every choice is ascending row ids, so results,
// their order, and LIMIT or row-cap early termination are unchanged.
func (rt *stmtRun) semiJoinDrive(cands, tuple []int) []int {
	if len(rt.st.semis) == 0 {
		return cands
	}
	if rt.minRows != nil && rt.minRows[0] > 0 {
		cands = cands[sort.SearchInts(cands, rt.minRows[0]):]
	}
	drove := false
	for _, sj := range rt.st.semis {
		if ids, ok := rt.reduce(sj, len(cands), tuple); ok {
			cands, drove = ids, true
		}
	}
	if drove {
		rt.stats.SemiJoinDrives++
	}
	return cands
}

// reduce evaluates one semi-join reduction, reporting ok only when it
// yields fewer than best level-0 rows. tuple is scratch: sj.bind's slot
// is overwritten while its conjuncts filter the driver's rows.
func (rt *stmtRun) reduce(sj semiJoin, best int, tuple []int) ([]int, bool) {
	var rows []int
	limit := best
	for _, d := range sj.drivers {
		if got, ok := rt.driverRows(sj.bind, d, limit); ok && len(got) < limit {
			rows, limit = got, len(got)
		}
	}
	if limit == best {
		return nil, false
	}
	st := rt.st
	min := 0
	if rt.minRows != nil {
		min = rt.minRows[sj.bind]
	}
	vals := make([]int64, 0, len(rows))
	for _, rid := range rows {
		if rid < min {
			continue
		}
		tuple[sj.bind] = rid
		ok := true
		for _, ci := range sj.filters {
			if !st.conjs[ci].fn(rt, tuple) {
				ok = false
				break
			}
		}
		// A NULL join value never satisfies the equi-join.
		if v := rt.rows[sj.bind][rid][sj.col]; ok && v.Kind == TypeInt {
			vals = append(vals, v.Int)
		}
	}
	slices.Sort(vals)
	var ids []int
	var ok bool
	if rt.view != nil {
		ids, ok = rt.tables[0].lookupEqIntsView(sj.driveCol, vals, rt.rows[0], best)
	} else {
		ids, ok = rt.tables[0].lookupEqInts(sj.driveCol, vals, best)
	}
	if !ok {
		return nil, false
	}
	if rt.minRows != nil && rt.minRows[0] > 0 {
		ids = ids[sort.SearchInts(ids, rt.minRows[0]):]
	}
	return ids, true
}

// driverRows resolves a semi-join driver's rows from binding bind's hash
// index, or reports !ok when the column has no hash index or (for LIKE)
// the dictionary or its answer is not smaller than max. A locked
// statement already holds every bound table's read lock; a view
// execution takes it for the probe alone, as lookupEqView does.
func (rt *stmtRun) driverRows(bind int, d semiDriver, max int) ([]int, bool) {
	t, rowLimit := rt.tables[bind], len(rt.rows[bind])
	if rt.view != nil {
		t.mu.RLock()
		defer t.mu.RUnlock()
	}
	if d.like {
		return t.lookupLike(d.col, d.key, rowLimit, max)
	}
	return t.hashBucket(d.col, d.key, rowLimit)
}

// lookupEq dispatches an equality lookup to the locked or epoch-view
// variant, per how this execution reads its tables.
func (rt *stmtRun) lookupEq(level, ci int, v Value) ([]int, bool) {
	if rt.view != nil {
		return rt.tables[level].lookupEqView(ci, v, rt.rows[level])
	}
	return rt.tables[level].lookupEq(ci, v)
}

func (rt *stmtRun) countAccess(indexed bool) {
	if indexed {
		rt.stats.IndexLookups++
	} else {
		rt.stats.FullScans++
	}
}

// eqLiteral matches `col = literal` (either side) on the given binding.
func (st *Stmt) eqLiteral(e Expr, level int) (col int, lit Value, ok bool) {
	cmp, isCmp := e.(CmpExpr)
	if !isCmp || cmp.Op != "=" {
		return 0, Value{}, false
	}
	colE, litE := cmp.L, cmp.R
	if _, isLit := colE.(LitExpr); isLit {
		colE, litE = litE, colE
	}
	ce, okc := colE.(ColExpr)
	le, okl := litE.(LitExpr)
	if !okc || !okl {
		return 0, Value{}, false
	}
	bi, ci, err := st.resolveCol(ce.Ref)
	if err != nil || bi != level {
		return 0, Value{}, false
	}
	return ci, le.V, true
}

// likeLiteral matches a non-negated `col LIKE literal` on the given
// binding, returning the pattern as the row-wise LIKE renders it.
func (st *Stmt) likeLiteral(e Expr, level int) (col int, pattern string, ok bool) {
	cmp, isCmp := e.(CmpExpr)
	if !isCmp || cmp.Op != "like" || cmp.Neg {
		return 0, "", false
	}
	ce, okc := cmp.L.(ColExpr)
	le, okl := cmp.R.(LitExpr)
	if !okc || !okl {
		return 0, "", false
	}
	bi, ci, err := st.resolveCol(ce.Ref)
	if err != nil || bi != level {
		return 0, "", false
	}
	return ci, le.V.String(), true
}

// eqJoin matches `a.col = b.col` where one side is the given binding.
func (st *Stmt) eqJoin(e Expr, level int) (myCol, otherBind, otherCol int, ok bool) {
	cmp, isCmp := e.(CmpExpr)
	if !isCmp || cmp.Op != "=" {
		return 0, 0, 0, false
	}
	l, okl := cmp.L.(ColExpr)
	r, okr := cmp.R.(ColExpr)
	if !okl || !okr {
		return 0, 0, 0, false
	}
	lb, lc, err1 := st.resolveCol(l.Ref)
	rb, rc, err2 := st.resolveCol(r.Ref)
	if err1 != nil || err2 != nil {
		return 0, 0, 0, false
	}
	switch level {
	case lb:
		return lc, rb, rc, true
	case rb:
		return rc, lb, lc, true
	}
	return 0, 0, 0, false
}

// rangeLiteral matches comparisons and BETWEEN against literals on the
// given binding, returning range bounds.
func (st *Stmt) rangeLiteral(e Expr, level int) (col int, lo, hi *Value, loInc, hiInc, ok bool) {
	switch x := e.(type) {
	case BetweenExpr:
		if x.Neg {
			return
		}
		ce, okc := x.L.(ColExpr)
		if !okc {
			return
		}
		bi, ci, err := st.resolveCol(ce.Ref)
		if err != nil || bi != level {
			return
		}
		l, h := x.Lo, x.Hi
		return ci, &l, &h, true, true, true
	case CmpExpr:
		colE, litE, flip := x.L, x.R, false
		if _, isLit := colE.(LitExpr); isLit {
			colE, litE, flip = litE, colE, true
		}
		ce, okc := colE.(ColExpr)
		le, okl := litE.(LitExpr)
		if !okc || !okl {
			return
		}
		bi, ci, err := st.resolveCol(ce.Ref)
		if err != nil || bi != level {
			return
		}
		op := x.Op
		if flip {
			switch op {
			case "<":
				op = ">"
			case "<=":
				op = ">="
			case ">":
				op = "<"
			case ">=":
				op = "<="
			}
		}
		v := le.V
		switch op {
		case "<":
			return ci, nil, &v, false, false, true
		case "<=":
			return ci, nil, &v, false, true, true
		case ">":
			return ci, &v, nil, false, false, true
		case ">=":
			return ci, &v, nil, true, false, true
		}
	}
	return
}

// compileBool compiles a boolean expression to a closure with all column
// references pre-resolved, so per-row evaluation does no name lookups.
func (st *Stmt) compileBool(e Expr) (boolFn, error) {
	switch x := e.(type) {
	case BinExpr:
		l, err := st.compileBool(x.L)
		if err != nil {
			return nil, err
		}
		r, err := st.compileBool(x.R)
		if err != nil {
			return nil, err
		}
		if x.Op == "and" {
			return func(rt *stmtRun, t []int) bool { return l(rt, t) && r(rt, t) }, nil
		}
		return func(rt *stmtRun, t []int) bool { return l(rt, t) || r(rt, t) }, nil
	case NotExpr:
		inner, err := st.compileBool(x.E)
		if err != nil {
			return nil, err
		}
		return func(rt *stmtRun, t []int) bool { return !inner(rt, t) }, nil
	case CmpExpr:
		l, err := st.compileVal(x.L)
		if err != nil {
			return nil, err
		}
		r, err := st.compileVal(x.R)
		if err != nil {
			return nil, err
		}
		if x.Op == "like" {
			neg := x.Neg
			return func(rt *stmtRun, t []int) bool {
				res := likeMatch(l(rt, t).String(), r(rt, t).String())
				return res != neg
			}, nil
		}
		var test func(c int) bool
		switch x.Op {
		case "=":
			test = func(c int) bool { return c == 0 }
		case "!=":
			test = func(c int) bool { return c != 0 }
		case "<":
			test = func(c int) bool { return c < 0 }
		case "<=":
			test = func(c int) bool { return c <= 0 }
		case ">":
			test = func(c int) bool { return c > 0 }
		case ">=":
			test = func(c int) bool { return c >= 0 }
		default:
			return nil, fmt.Errorf("relstore: unknown comparison %q", x.Op)
		}
		return func(rt *stmtRun, t []int) bool {
			lv, rv := l(rt, t), r(rt, t)
			if lv.IsNull() || rv.IsNull() {
				return false
			}
			return test(Compare(lv, rv))
		}, nil
	case InExpr:
		l, err := st.compileVal(x.L)
		if err != nil {
			return nil, err
		}
		// Pre-index the literal list for O(1) membership tests.
		set := make(map[string]bool, len(x.Vals))
		for _, v := range x.Vals {
			set[v.key()] = true
		}
		neg := x.Neg
		return func(rt *stmtRun, t []int) bool { return set[l(rt, t).key()] != neg }, nil
	case InParamExpr:
		l, err := st.compileVal(x.L)
		if err != nil {
			return nil, err
		}
		if x.Slot < 0 {
			return nil, fmt.Errorf("relstore: negative parameter slot $%d", x.Slot)
		}
		if x.Slot+1 > st.nSet {
			st.nSet = x.Slot + 1
		}
		slot, neg := x.Slot, x.Neg
		return func(rt *stmtRun, t []int) bool {
			v := l(rt, t)
			in := v.Kind == TypeInt && rt.params.has(slot, v.Int)
			return in != neg
		}, nil
	case BetweenExpr:
		l, err := st.compileVal(x.L)
		if err != nil {
			return nil, err
		}
		lo, hi, neg := x.Lo, x.Hi, x.Neg
		return func(rt *stmtRun, t []int) bool {
			v := l(rt, t)
			in := Compare(v, lo) >= 0 && Compare(v, hi) <= 0
			return in != neg
		}, nil
	case IsNullExpr:
		l, err := st.compileVal(x.L)
		if err != nil {
			return nil, err
		}
		neg := x.Neg
		return func(rt *stmtRun, t []int) bool { return l(rt, t).IsNull() != neg }, nil
	case LitExpr:
		truthy := !x.V.IsNull() && !(x.V.Kind == TypeInt && x.V.Int == 0)
		return func(*stmtRun, []int) bool { return truthy }, nil
	default:
		return nil, fmt.Errorf("relstore: expression %T is not boolean", e)
	}
}

// compileVal compiles an operand expression.
func (st *Stmt) compileVal(e Expr) (valFn, error) {
	switch x := e.(type) {
	case LitExpr:
		v := x.V
		return func(*stmtRun, []int) Value { return v }, nil
	case ColExpr:
		bi, ci, err := st.resolveCol(x.Ref)
		if err != nil {
			return nil, err
		}
		return func(rt *stmtRun, t []int) Value { return rt.rows[bi][t[bi]][ci] }, nil
	default:
		return nil, fmt.Errorf("relstore: expression %T is not a value", e)
	}
}

// resolveCol locates a column reference among the bindings, memoizing
// the result (resolution is pure per statement).
func (st *Stmt) resolveCol(ref ColRef) (bi, ci int, err error) {
	if r, ok := st.colCache[ref]; ok {
		return r.bind, r.col, r.err
	}
	bi, ci, err = st.resolveColSlow(ref)
	if st.colCache == nil {
		st.colCache = make(map[ColRef]resolvedRef)
	}
	st.colCache[ref] = resolvedRef{bind: bi, col: ci, err: err}
	return bi, ci, err
}

func (st *Stmt) resolveColSlow(ref ColRef) (bi, ci int, err error) {
	if ref.Table != "" {
		want := strings.ToLower(ref.Table)
		for i, b := range st.binds {
			if b.name == want {
				c := b.table.ColIndex(ref.Col)
				if c < 0 {
					return 0, 0, fmt.Errorf("relstore: no column %q in %q", ref.Col, ref.Table)
				}
				return i, c, nil
			}
		}
		return 0, 0, fmt.Errorf("relstore: no table binding %q", ref.Table)
	}
	found := -1
	for i, b := range st.binds {
		if c := b.table.ColIndex(ref.Col); c >= 0 {
			if found >= 0 {
				return 0, 0, fmt.Errorf("relstore: ambiguous column %q", ref.Col)
			}
			found = i
			ci = c
		}
	}
	if found < 0 {
		return 0, 0, fmt.Errorf("relstore: no column %q", ref.Col)
	}
	return found, ci, nil
}

// collectRefs records which bindings an expression references.
func (st *Stmt) collectRefs(e Expr, refs map[int]bool) error {
	switch x := e.(type) {
	case BinExpr:
		if err := st.collectRefs(x.L, refs); err != nil {
			return err
		}
		return st.collectRefs(x.R, refs)
	case NotExpr:
		return st.collectRefs(x.E, refs)
	case CmpExpr:
		if err := st.collectRefs(x.L, refs); err != nil {
			return err
		}
		return st.collectRefs(x.R, refs)
	case InExpr:
		return st.collectRefs(x.L, refs)
	case InParamExpr:
		return st.collectRefs(x.L, refs)
	case BetweenExpr:
		return st.collectRefs(x.L, refs)
	case IsNullExpr:
		return st.collectRefs(x.L, refs)
	case ColExpr:
		bi, _, err := st.resolveCol(x.Ref)
		if err != nil {
			return err
		}
		refs[bi] = true
		return nil
	case LitExpr:
		return nil
	default:
		return fmt.Errorf("relstore: unknown expression %T", e)
	}
}

// splitAnd flattens nested ANDs into a conjunct list.
func splitAnd(e Expr) []Expr {
	if b, ok := e.(BinExpr); ok && b.Op == "and" {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []Expr{e}
}
