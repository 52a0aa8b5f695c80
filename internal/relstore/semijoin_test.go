package relstore

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// The semi-join differential suite: seeded `events ⋈ entities s ⋈
// entities o` statements over generated tables with NULLs, duplicate
// IDs, dangling references and values that render like NULL or digits,
// each checked row for row, in order, against a brute-force nested-loop
// evaluator written here. The executor drives the events binding from a
// semi-join reduction whenever that is smaller; the reference knows
// nothing of access paths.

// Entity and event column positions (EntitySchema, EventSchema).
const (
	entID, entType, entName, entExe, entPid, entDstIP = 0, 1, 3, 4, 5, 9
	evID, evSrc, evDst, evOp, evStart, evAmount       = 0, 1, 2, 3, 4, 6
)

// refPred is one WHERE conjunct: its SQL text and a reference evaluator
// over the bound event, subject and object rows. driver marks conjuncts
// the executor may resolve from an index for a semi-join reduction.
type refPred struct {
	sql    string
	eval   func(e, s, o []Value) bool
	driver bool
}

// refEq is SQL `=`: NULL on either side is false, otherwise Compare.
func refEq(a, b Value) bool { return !a.IsNull() && !b.IsNull() && Compare(a, b) == 0 }

// refLike is relstore's LIKE: it matches the rendered value, so NULL
// matches as "NULL" and an int as its digits.
func refLike(v Value, pattern string) bool { return likeMatch(v.String(), pattern) }

// semiGen generates one seeded store and statements over it.
type semiGen struct {
	rng   *rand.Rand
	names []string
	exes  []string
	// evSet and entSet mirror the ID sets bound to $0 and $1 for the
	// statement under test (bindSets).
	evSet, entSet map[int64]bool
}

func newSemiGen(seed int64) *semiGen {
	g := &semiGen{rng: rand.New(rand.NewSource(seed))}
	g.names = []string{"/usr/bin/curl", "/etc/passwd", "/etc/shadow", "/tmp/a_b", "/tmp/a%b", "NULL", "12", "curl", ""}
	for i := 0; i < 30; i++ {
		g.names = append(g.names, fmt.Sprintf("/home/u%d/f%d", i%7, i))
	}
	g.exes = []string{"/bin/bash", "/usr/bin/curl", "/usr/bin/tar", "/bin/gpg", "NULL", "7"}
	return g
}

func (g *semiGen) pick(vals []string) string { return vals[g.rng.Intn(len(vals))] }

// maybeNull returns NULL with probability 1/n.
func (g *semiGen) maybeNull(n int, v Value) Value {
	if g.rng.Intn(n) == 0 {
		return NullValue
	}
	return v
}

func (g *semiGen) entity() []Value {
	// IDs repeat (two entities share an id) and are sometimes NULL.
	id := g.maybeNull(25, IntValue(int64(1+g.rng.Intn(90))))
	types := []string{"process", "process", "file", "file", "file", "socket"}
	return []Value{
		id,
		g.maybeNull(20, TextValue(g.pick(types))),
		TextValue(fmt.Sprintf("h%d", g.rng.Intn(3))),
		g.maybeNull(8, TextValue(g.pick(g.names))),
		g.maybeNull(8, TextValue(g.pick(g.exes))),
		g.maybeNull(10, IntValue(int64(g.rng.Intn(20)))),
		TextValue("/x"),
		TextValue(""),
		IntValue(0),
		g.maybeNull(6, TextValue(fmt.Sprintf("10.0.0.%d", g.rng.Intn(4)))),
		IntValue(0),
		TextValue("tcp"),
	}
}

func (g *semiGen) event(id int) []Value {
	ops := []string{"read", "read", "read", "write", "execute", "connect", "5"}
	start := int64(g.rng.Intn(1000))
	return []Value{
		IntValue(int64(id)),
		g.maybeNull(30, IntValue(int64(g.rng.Intn(100)))), // ids 90..99 dangle
		g.maybeNull(30, IntValue(int64(g.rng.Intn(100)))),
		TextValue(g.pick(ops)),
		IntValue(start),
		IntValue(start + 5),
		g.maybeNull(10, IntValue(int64(g.rng.Intn(4096)))),
		TextValue("h0"),
	}
}

// pattern returns a LIKE pattern mixing literals, '%' and '_', including
// ones that match the "NULL" rendering and digit strings.
func (g *semiGen) pattern() string {
	switch g.rng.Intn(9) {
	case 0:
		return "%curl%"
	case 1:
		return "/etc/%"
	case 2:
		return "%NUL_"
	case 3:
		return "1_"
	case 4:
		return "%7"
	case 5:
		return "/tmp/a_b"
	case 6:
		return "%/f1%"
	case 7:
		return "/home/u_/%"
	default:
		v := g.pick(g.names)
		if len(v) > 3 {
			v = v[:3]
		}
		return v + "%"
	}
}

// entityPred generates a conjunct on the subject (alias "s") or object
// ("o") binding.
func (g *semiGen) entityPred(alias string) refPred {
	row := func(s, o []Value) []Value {
		if alias == "s" {
			return s
		}
		return o
	}
	a := alias + "."
	switch g.rng.Intn(12) {
	case 0, 1:
		typ := g.pick([]string{"process", "file", "socket"})
		lit := TextValue(typ)
		return refPred{sql: a + "type = " + lit.SQL(), driver: true,
			eval: func(_, s, o []Value) bool { return refEq(row(s, o)[entType], lit) }}
	case 2, 3:
		col, ci := "name", entName
		if g.rng.Intn(2) == 0 {
			col, ci = "exename", entExe
		}
		pat := g.pattern()
		return refPred{sql: a + col + " LIKE '" + pat + "'", driver: true,
			eval: func(_, s, o []Value) bool { return refLike(row(s, o)[ci], pat) }}
	case 4:
		// LIKE on an int column matches its digits.
		pat := g.pick([]string{"1_", "%7", "_", "%0%"})
		return refPred{sql: a + "id LIKE '" + pat + "'", driver: true,
			eval: func(_, s, o []Value) bool { return refLike(row(s, o)[entID], pat) }}
	case 5:
		// Negated LIKE never drives a reduction.
		pat := g.pattern()
		return refPred{sql: a + "name NOT LIKE '" + pat + "'",
			eval: func(_, s, o []Value) bool { return !refLike(row(s, o)[entName], pat) }}
	case 6:
		vals := []Value{TextValue(g.pick(g.exes)), TextValue(g.pick(g.exes))}
		return refPred{sql: a + "exename IN (" + vals[0].SQL() + ", " + vals[1].SQL() + ")",
			eval: func(_, s, o []Value) bool {
				k := row(s, o)[entExe].key()
				return k == vals[0].key() || k == vals[1].key()
			}}
	case 7:
		lit := TextValue(g.pick(g.names))
		return refPred{sql: a + "name = " + lit.SQL(), driver: true,
			eval: func(_, s, o []Value) bool { return refEq(row(s, o)[entName], lit) }}
	case 8:
		// A text literal against the hash-indexed INT id column compares by
		// coercion, which the hash bucket cannot answer: a filter, never a
		// driver.
		n := g.rng.Intn(90)
		lit := TextValue(fmt.Sprint(n))
		return refPred{sql: fmt.Sprintf("%sid = '%d'", a, n),
			eval: func(_, s, o []Value) bool { return refEq(row(s, o)[entID], lit) }}
	case 9:
		k := int64(g.rng.Intn(20))
		return refPred{sql: fmt.Sprintf("%spid > %d", a, k),
			eval: func(_, s, o []Value) bool {
				v := row(s, o)[entPid]
				return !v.IsNull() && Compare(v, IntValue(k)) > 0
			}}
	case 10:
		pat := g.pattern()
		ip := TextValue(fmt.Sprintf("10.0.0.%d", g.rng.Intn(4)))
		return refPred{sql: fmt.Sprintf("(%sname LIKE '%s' OR %sdstip = %s)", a, pat, a, ip.SQL()),
			eval: func(_, s, o []Value) bool {
				r := row(s, o)
				return refLike(r[entName], pat) || refEq(r[entDstIP], ip)
			}}
	default:
		// The bound entity-ID set parameter ($1).
		return refPred{sql: a + "id IN $1",
			eval: func(_, s, o []Value) bool {
				v := row(s, o)[entID]
				return v.Kind == TypeInt && g.entSet[v.Int]
			}}
	}
}

// bindSets draws the ID sets for $0 (events) and $1 (entities).
func (g *semiGen) bindSets() *Params {
	mk := func(n int) ([]int64, map[int64]bool) {
		ids := make([]int64, 0, n)
		m := map[int64]bool{}
		for i := 0; i < n; i++ {
			id := int64(g.rng.Intn(100))
			ids = append(ids, id, id) // duplicates on purpose
			m[id] = true
		}
		return ids, m
	}
	var evIDs, entIDs []int64
	evIDs, g.evSet = mk(1 + g.rng.Intn(40))
	entIDs, g.entSet = mk(1 + g.rng.Intn(40))
	return NewParams().BindIDSet(0, evIDs).BindIDSet(1, entIDs)
}

// eventPred generates a conjunct on the events binding.
func (g *semiGen) eventPred() refPred {
	switch g.rng.Intn(7) {
	case 0, 1:
		op := TextValue(g.pick([]string{"read", "write", "execute"}))
		return refPred{sql: "e.optype = " + op.SQL(),
			eval: func(e, _, _ []Value) bool { return refEq(e[evOp], op) }}
	case 2:
		return refPred{sql: "e.optype IN ('read', 'connect')",
			eval: func(e, _, _ []Value) bool { k := e[evOp].key(); return k == "tread" || k == "tconnect" }}
	case 3:
		return refPred{sql: "(e.optype = 'read' OR e.optype = 'write')",
			eval: func(e, _, _ []Value) bool {
				return refEq(e[evOp], TextValue("read")) || refEq(e[evOp], TextValue("write"))
			}}
	case 4:
		col, ci := "srcid", evSrc
		if g.rng.Intn(2) == 0 {
			col, ci = "dstid", evDst
		}
		return refPred{sql: "e." + col + " IN $0",
			eval: func(e, _, _ []Value) bool { v := e[ci]; return v.Kind == TypeInt && g.evSet[v.Int] }}
	case 5:
		lo := int64(g.rng.Intn(800))
		hi := lo + int64(g.rng.Intn(400))
		return refPred{sql: fmt.Sprintf("e.starttime BETWEEN %d AND %d", lo, hi),
			eval: func(e, _, _ []Value) bool {
				return Compare(e[evStart], IntValue(lo)) >= 0 && Compare(e[evStart], IntValue(hi)) <= 0
			}}
	default:
		k := int64(g.rng.Intn(4096))
		return refPred{sql: fmt.Sprintf("e.amount < %d", k),
			eval: func(e, _, _ []Value) bool {
				v := e[evAmount]
				return !v.IsNull() && Compare(v, IntValue(k)) < 0
			}}
	}
}

// semiStmt is one generated statement.
type semiStmt struct {
	sql    string
	preds  []refPred
	limit  int // -1: none
	driver bool
}

func (g *semiGen) stmt() semiStmt {
	var preds []refPred
	for i := g.rng.Intn(3); i > 0; i-- {
		preds = append(preds, g.eventPred())
	}
	for _, alias := range []string{"s", "o"} {
		for i := g.rng.Intn(3); i > 0; i-- {
			preds = append(preds, g.entityPred(alias))
		}
	}
	g.rng.Shuffle(len(preds), func(i, j int) { preds[i], preds[j] = preds[j], preds[i] })
	st := semiStmt{limit: -1}
	var where []string
	for _, p := range preds {
		where = append(where, p.sql)
		st.driver = st.driver || p.driver
	}
	st.preds = preds
	st.sql = "SELECT e.id, s.id, o.id, s.name, o.exename, e.optype FROM events e" +
		" JOIN entities s ON e.srcid = s.id JOIN entities o ON e.dstid = o.id"
	if len(where) > 0 {
		st.sql += " WHERE " + strings.Join(where, " AND ")
	}
	if g.rng.Intn(6) == 0 {
		st.limit = 1 + g.rng.Intn(5)
		st.sql += fmt.Sprintf(" LIMIT %d", st.limit)
	}
	return st
}

// refQuery evaluates a statement by brute force: events in row order
// (or, when the executor drives them from the ordered starttime index,
// in starttime order with ties by row), subjects and objects each in row
// order, over the given rows, restricted to events from row minEv and
// entities from row minEnt on.
func refQuery(sq semiStmt, events, ents [][]Value, minEv, minEnt int, byStart bool) [][]Value {
	order := make([]int, 0, len(events))
	for i := minEv; i < len(events); i++ {
		order = append(order, i)
	}
	if byStart {
		sort.SliceStable(order, func(a, b int) bool {
			return Compare(events[order[a]][evStart], events[order[b]][evStart]) < 0
		})
	}
	var out [][]Value
	for _, ei := range order {
		e := events[ei]
		for si := minEnt; si < len(ents); si++ {
			s := ents[si]
			if !refEq(e[evSrc], s[entID]) {
				continue
			}
			for oi := minEnt; oi < len(ents); oi++ {
				o := ents[oi]
				if !refEq(e[evDst], o[entID]) {
					continue
				}
				ok := true
				for _, p := range sq.preds {
					if !p.eval(e, s, o) {
						ok = false
						break
					}
				}
				if ok {
					out = append(out, []Value{e[evID], s[entID], o[entID], s[entName], o[entExe], e[evOp]})
				}
			}
		}
	}
	if sq.limit >= 0 && len(out) > sq.limit {
		out = out[:sq.limit]
	}
	return out
}

func sameData(got [][]Value, want [][]Value) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		for j := range got[i] {
			// key() distinguishes NULL from the text "NULL" and 7 from "7".
			if got[i][j].key() != want[i][j].key() {
				return fmt.Sprintf("row %d col %d = %v, want %v (got %v want %v)",
					i, j, got[i][j], want[i][j], got[i], want[i])
			}
		}
	}
	return ""
}

// TestSemiJoinMatchesReference is the differential property test of the
// semi-join access path: locked and view executions, epoch views
// captured mid-ingest, row caps and Since watermarks all return exactly
// the reference evaluator's rows in its order.
func TestSemiJoinMatchesReference(t *testing.T) {
	drives, statements := 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		g := newSemiGen(seed)
		db := NewDB()
		if err := Bootstrap(db); err != nil {
			t.Fatal(err)
		}
		entT, evT := db.Table(EntityTable), db.Table(EventTable)
		ingest := func(nEnt, nEv int) {
			for i := 0; i < nEnt; i++ {
				if err := entT.Insert(g.entity()); err != nil {
					t.Fatal(err)
				}
			}
			base := evT.NumRows()
			for i := 0; i < nEv; i++ {
				if err := evT.Insert(g.event(base + i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		ingest(80, 300)
		mid := db.View() // captured mid-ingest: the index buckets grow past it
		ingest(40, 150)
		final := db.View()
		evMark, entMark := mid.Table(EventTable).NumRows(), mid.Table(EntityTable).NumRows()
		allEv, allEnt := final.Table(EventTable).rows, final.Table(EntityTable).rows
		midEv, midEnt := mid.Table(EventTable).rows, mid.Table(EntityTable).rows

		for q := 0; q < 60; q++ {
			sq := g.stmt()
			params := g.bindSets()
			st, err := db.Prepare(sq.sql)
			if err != nil {
				t.Fatalf("seed %d: prepare %s: %v", seed, sq.sql, err)
			}
			// Only the ordered starttime index enumerates out of row order.
			byStart := st.plans[0].kind == 'r' && st.plans[0].col == evStart
			statements++
			check := func(mode string, rr *Rows, stats ExecStats, err error, want [][]Value) {
				t.Helper()
				if err != nil {
					t.Fatalf("seed %d %s: %s: %v", seed, mode, sq.sql, err)
				}
				if msg := sameData(rr.Data, want); msg != "" {
					t.Fatalf("seed %d %s: %s\n%s", seed, mode, sq.sql, msg)
				}
				if stats.SemiJoinDrives > 0 && !sq.driver {
					t.Fatalf("seed %d %s: %s has no driver conjunct but took the semi-join path", seed, mode, sq.sql)
				}
				drives += stats.SemiJoinDrives
			}
			full := refQuery(sq, allEv, allEnt, 0, 0, byStart)

			rr, stats, err := st.QueryStats(params)
			check("locked", rr, stats, err, full)
			rr, stats, err = st.QueryViewStats(final, params)
			check("view", rr, stats, err, full)
			rr, stats, err = st.QueryViewStats(mid, params)
			check("mid-ingest view", rr, stats, err, refQuery(sq, midEv, midEnt, 0, 0, byStart))

			rowCap := 1 + g.rng.Intn(4)
			capped := full
			if len(capped) > rowCap {
				capped = capped[:rowCap]
			}
			rr, stats, err = st.execCap(final, params, rowCap)
			check("row cap", rr, stats, err, capped)

			rr, stats, err = st.execWith(final, params, execOpts{sinceTable: EventTable, sinceRow: evMark})
			check("since events", rr, stats, err, refQuery(sq, allEv, allEnt, evMark, 0, byStart))
			rr, stats, err = st.execWith(final, params, execOpts{sinceTable: EntityTable, sinceRow: entMark})
			check("since entities", rr, stats, err, refQuery(sq, allEv, allEnt, 0, entMark, byStart))
		}
	}
	// The suite must exercise the path it guards, not just the fallback.
	t.Logf("%d semi-join drives across %d statements", drives, statements)
	if drives < statements {
		t.Fatalf("only %d semi-join drives across %d statements x 6 executions", drives, statements)
	}
}

// ctiFixture builds a store shaped like an audit log: nProc processes
// over 20 executables, nFile files with distinct names, and nEv events,
// each a process reading or writing a file. One process runs curl and
// reads the secret file once every 100 events.
func ctiFixture(tb testing.TB, nProc, nFile, nEv int) *DB {
	tb.Helper()
	db := NewDB()
	if err := Bootstrap(db); err != nil {
		tb.Fatal(err)
	}
	ents, evts := db.Table(EntityTable), db.Table(EventTable)
	ent := func(id int, typ, name, exe string) {
		row := []Value{IntValue(int64(id)), TextValue(typ), TextValue("h"), TextValue(name),
			TextValue(exe), IntValue(int64(id)), TextValue(name), TextValue(""), IntValue(0),
			TextValue(""), IntValue(0), TextValue("")}
		if err := ents.Insert(row); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < nProc; i++ {
		exe := fmt.Sprintf("/usr/bin/tool%d", i%19)
		if i == 7 {
			exe = "/usr/bin/curl"
		}
		ent(i, "process", exe, exe)
	}
	for i := 0; i < nFile; i++ {
		name := fmt.Sprintf("/data/f%d", i)
		if i == 3 {
			name = "/home/u/secret.txt"
		}
		ent(nProc+i, "file", name, "")
	}
	for i := 0; i < nEv; i++ {
		src, dst, op := i%nProc, nProc+(i*7)%nFile, "read"
		if i%100 == 0 {
			src, dst = 7, nProc+3
		}
		if i%4 == 3 {
			op = "write"
		}
		row := []Value{IntValue(int64(i)), IntValue(int64(src)), IntValue(int64(dst)), TextValue(op),
			IntValue(int64(i)), IntValue(int64(i + 1)), IntValue(8), TextValue("h")}
		if err := evts.Insert(row); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// ctiSQL is the data query the execution engine compiles for a
// CTI-synthesized pattern: substring filters on both endpoints.
const ctiSQL = `SELECT e.id, e.srcid, e.dstid FROM events e
	JOIN entities s ON e.srcid = s.id JOIN entities o ON e.dstid = o.id
	WHERE s.type = 'process' AND o.type = 'file' AND e.optype = 'read'
	AND s.exename LIKE '%/usr/bin/curl%' AND o.name LIKE '%secret%'`

func semiJoinRun(t *testing.T, db *DB, sql string, run func(*Stmt) (*Rows, ExecStats, error)) (*Rows, ExecStats) {
	t.Helper()
	st, err := db.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	rr, stats, err := run(st)
	if err != nil {
		t.Fatal(err)
	}
	return rr, stats
}

// TestSemiJoinDrivesCTIPattern: the CTI-shaped statement drives the
// events binding from the LIKE-resolved subject instead of the whole
// optype bucket, in both locked and view execution.
func TestSemiJoinDrivesCTIPattern(t *testing.T) {
	db := ctiFixture(t, 200, 1000, 4000)
	v := db.View()
	for mode, run := range map[string]func(*Stmt) (*Rows, ExecStats, error){
		"locked": func(st *Stmt) (*Rows, ExecStats, error) { return st.QueryStats(nil) },
		"view":   func(st *Stmt) (*Rows, ExecStats, error) { return st.QueryViewStats(v, nil) },
	} {
		rr, stats := semiJoinRun(t, db, ctiSQL, run)
		if stats.SemiJoinDrives != 1 {
			t.Errorf("%s: SemiJoinDrives = %d, want 1", mode, stats.SemiJoinDrives)
		}
		if len(rr.Data) != 40 {
			t.Errorf("%s: %d rows, want the 40 curl reads of the secret", mode, len(rr.Data))
		}
		// curl's 40 events, not the 3000-event read bucket.
		if stats.RowsScanned > 200 {
			t.Errorf("%s: scanned %d rows", mode, stats.RowsScanned)
		}
	}
}

// TestSemiJoinSkipsUnselectiveDrivers pins the two cost caps and the
// planning exclusions: each statement here must not take the path.
func TestSemiJoinSkipsUnselectiveDrivers(t *testing.T) {
	db := ctiFixture(t, 200, 1000, 4000)
	for name, sql := range map[string]string{
		// Every event is process -> file: the type buckets reduce nothing.
		"type filters only": `SELECT e.id FROM events e JOIN entities s ON e.srcid = s.id
			JOIN entities o ON e.dstid = o.id
			WHERE s.type = 'process' AND o.type = 'file' AND e.optype = 'read'`,
		"negated LIKE": `SELECT e.id FROM events e JOIN entities s ON e.srcid = s.id
			WHERE e.optype = 'read' AND s.exename NOT LIKE '%/usr/bin/curl%'`,
		// The INT literal misses the TEXT optype bucket's coerced matches,
		// so the level's own path is not a superset a reduction may replace.
		"mistyped level-0 literal": `SELECT e.id FROM events e JOIN entities s ON e.srcid = s.id
			WHERE e.optype = 5 AND s.exename LIKE '%/usr/bin/curl%'`,
		// Ordered-index candidates come in starttime order, not row order.
		"range-driven level 0": `SELECT e.id FROM events e JOIN entities s ON e.srcid = s.id
			WHERE e.starttime BETWEEN 0 AND 4000 AND s.exename LIKE '%/usr/bin/curl%'`,
	} {
		_, stats := semiJoinRun(t, db, sql, func(st *Stmt) (*Rows, ExecStats, error) { return st.QueryStats(nil) })
		if stats.SemiJoinDrives != 0 {
			t.Errorf("%s: SemiJoinDrives = %d, want 0", name, stats.SemiJoinDrives)
		}
	}
}

// TestSemiJoinSinceDeltaSkipsLargeDictionary: a standing hunt's delta
// fetch compares a LIKE dictionary against the delta, not the whole
// bucket, so a 1000-name dictionary is not scanned for 50 new events —
// while the same statement over the full view does take the path.
func TestSemiJoinSinceDeltaSkipsLargeDictionary(t *testing.T) {
	db := ctiFixture(t, 200, 1000, 4000)
	sql := `SELECT e.id FROM events e JOIN entities s ON e.srcid = s.id
		JOIN entities o ON e.dstid = o.id
		WHERE e.optype = 'read' AND o.name LIKE '%secret%'`
	v := db.View()
	mark := v.Table(EventTable).NumRows() - 50
	full, stats := semiJoinRun(t, db, sql, func(st *Stmt) (*Rows, ExecStats, error) { return st.QueryViewStats(v, nil) })
	if stats.SemiJoinDrives != 1 {
		t.Fatalf("full view: SemiJoinDrives = %d, want 1", stats.SemiJoinDrives)
	}
	delta, stats := semiJoinRun(t, db, sql, func(st *Stmt) (*Rows, ExecStats, error) {
		return st.execWith(v, nil, execOpts{sinceTable: EventTable, sinceRow: mark})
	})
	if stats.SemiJoinDrives != 0 {
		t.Errorf("delta: SemiJoinDrives = %d, want 0", stats.SemiJoinDrives)
	}
	var want [][]Value
	for _, row := range full.Data {
		if row[0].Int >= int64(mark) {
			want = append(want, row)
		}
	}
	if msg := sameData(delta.Data, want); msg != "" {
		t.Errorf("delta rows: %s", msg)
	}
}

// TestSemiJoinConcurrentIngest runs the semi-join path's locked and
// view probes — bucket, dictionary scan, join-column probe — while a
// writer appends to the same indexes (run it under -race). Every result
// row must be a curl read of the secret, and each execution must see at
// least the rows committed before it started.
func TestSemiJoinConcurrentIngest(t *testing.T) {
	db := ctiFixture(t, 200, 1000, 4000)
	st, err := db.Prepare(ctiSQL)
	if err != nil {
		t.Fatal(err)
	}
	evts := db.Table(EventTable)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 4000; i < 6000; i++ {
			src, dst := int64(i%200), int64(200+i%1000)
			if i%50 == 0 {
				src, dst = 7, 203
			}
			row := []Value{IntValue(int64(i)), IntValue(src), IntValue(dst), TextValue("read"),
				IntValue(int64(i)), IntValue(int64(i + 1)), IntValue(8), TextValue("h")}
			if err := evts.Insert(row); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	check := func(mode string, rr *Rows, stats ExecStats, err error, atLeast int) {
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if stats.SemiJoinDrives != 1 {
			t.Fatalf("%s: SemiJoinDrives = %d, want 1", mode, stats.SemiJoinDrives)
		}
		if len(rr.Data) < atLeast {
			t.Fatalf("%s: %d rows, want at least %d", mode, len(rr.Data), atLeast)
		}
		for _, row := range rr.Data {
			if row[1].Int != 7 || row[2].Int != 203 {
				t.Fatalf("%s: row %v is not a curl read of the secret", mode, row)
			}
		}
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		v := db.View()
		rr, stats, err := st.QueryViewStats(v, nil)
		check("view", rr, stats, err, 40)
		seen := len(rr.Data)
		rr, stats, err = st.QueryStats(nil)
		check("locked", rr, stats, err, seen)
	}
}

// BenchmarkFetchEntityLike measures the CTI-shaped data query over an
// epoch view: 4000 events, 20 executables, 1000 file names.
func BenchmarkFetchEntityLike(b *testing.B) {
	db := ctiFixture(b, 200, 1000, 4000)
	st, err := db.Prepare(ctiSQL)
	if err != nil {
		b.Fatal(err)
	}
	v := db.View()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.QueryView(v, nil); err != nil {
			b.Fatal(err)
		}
	}
}
