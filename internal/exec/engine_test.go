package exec

import (
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/audit/gen"
	"repro/internal/graphstore"
	"repro/internal/relstore"
	"repro/internal/tbql"
)

// fig2TBQL is the paper's synthesized query for the data-leakage case.
const fig2TBQL = `proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1
proc p1 write file f2["%/tmp/upload.tar%"] as evt2
proc p2["%/bin/bzip2%"] read file f2 as evt3
proc p2 write file f3["%/tmp/upload.tar.bz2%"] as evt4
proc p3["%/usr/bin/gpg%"] read file f3 as evt5
proc p3 write file f4["%/tmp/upload%"] as evt6
proc p4["%/usr/bin/curl%"] read file f4 as evt7
proc p4 connect ip i1["192.168.29.128"] as evt8
with evt1 before evt2, evt2 before evt3, evt3 before evt4, evt4 before evt5, evt5 before evt6, evt6 before evt7, evt7 before evt8
return distinct p1, f1, f2, p2, f3, p3, f4, p4, i1`

// newEngine loads a generated workload into both backends (1 shard).
func newEngine(t testing.TB, cfg gen.Config) (*Engine, *gen.Workload) {
	t.Helper()
	en, ws := newShardedEngine(t, 1, cfg)
	return en, ws[0]
}

// newShardedEngine loads one or more generated workloads (typically one
// per host) through a single parser into sharded backends.
func newShardedEngine(t testing.TB, shards int, cfgs ...gen.Config) (*Engine, []*gen.Workload) {
	t.Helper()
	p := audit.NewParser()
	ws := make([]*gen.Workload, len(cfgs))
	for i, cfg := range cfgs {
		w := gen.Generate(cfg)
		for _, r := range w.Records {
			if _, err := p.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		ws[i] = w
	}
	rel, err := relstore.NewSharded(shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.Load(p.Entities(), p.Events()); err != nil {
		t.Fatal(err)
	}
	g := graphstore.NewSharded(shards)
	if err := g.Load(p.Entities(), p.Events()); err != nil {
		t.Fatal(err)
	}
	return &Engine{Rel: rel, Graph: g}, ws
}

func leakageEngine(t testing.TB, benign int) *Engine {
	en, _ := newEngine(t, gen.Config{
		Seed:         42,
		BenignEvents: benign,
		Attacks:      []gen.Attack{{Kind: gen.AttackDataLeakage, At: 10 * time.Minute}},
	})
	return en
}

// runTBQL parses src and executes it through Engine.Execute.
func runTBQL(en *Engine, src string) (*Result, error) {
	q, err := tbql.Parse(src)
	if err != nil {
		return nil, err
	}
	return en.Execute(q)
}

// openTBQL parses src and opens a cursor over it through
// Engine.ExecuteCursor with the given row-need bound (0 = none).
func openTBQL(en *Engine, src string, limit int) (*Cursor, error) {
	q, err := tbql.Parse(src)
	if err != nil {
		return nil, err
	}
	return en.ExecuteCursor(nil, q, limit, nil)
}

func TestExecuteFig2FindsAttack(t *testing.T) {
	en := leakageEngine(t, 2000)
	res, err := runTBQL(en, fig2TBQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("want exactly 1 result row, got %d\nqueries:\n%s",
			len(res.Rows), strings.Join(res.Stats.DataQueries, "\n"))
	}
	row := res.Rows[0]
	want := []string{"/bin/tar", "/etc/passwd", "/tmp/upload.tar", "/bin/bzip2",
		"/tmp/upload.tar.bz2", "/usr/bin/gpg", "/tmp/upload", "/usr/bin/curl", "192.168.29.128"}
	for i, w := range want {
		if row[i] != w {
			t.Errorf("col %d = %q, want %q", i, row[i], w)
		}
	}
	if len(res.Matches) != 1 {
		t.Errorf("matches = %d", len(res.Matches))
	}
}

func TestExecuteNoAttackNoMatch(t *testing.T) {
	en, _ := newEngine(t, gen.Config{Seed: 7, BenignEvents: 2000})
	res, err := runTBQL(en, fig2TBQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("benign-only workload matched the attack query: %v", res.Rows)
	}
	if !res.Stats.ShortCircuit {
		t.Error("expected short-circuit on empty pattern result")
	}
}

func TestExecuteTemporalOrderEnforced(t *testing.T) {
	en := leakageEngine(t, 0)
	// Reversed temporal constraint cannot match.
	q := `proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1
proc p1 write file f2["%/tmp/upload.tar%"] as evt2
with evt2 before evt1
return p1`
	res, err := runTBQL(en, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("impossible temporal order matched: %v", res.Rows)
	}
}

func TestExecuteSharedEntityJoin(t *testing.T) {
	en := leakageEngine(t, 1000)
	// f2 shared across evt2/evt3 must be the same file entity.
	q := `proc p1 write file f2["%/tmp/upload.tar%"] as evt2
proc p2["%/bin/bzip2%"] read file f2 as evt3
return distinct p1, p2, f2`
	res, err := runTBQL(en, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0] != "/bin/tar" || res.Rows[0][1] != "/bin/bzip2" {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestExecutePathPattern(t *testing.T) {
	en := leakageEngine(t, 500)
	// apache2 reaches /etc/passwd through forked intermediates (fork bash,
	// fork tar, read passwd = 3 hops; the leakage chain also reaches it).
	q := `proc p["%/usr/sbin/apache2%"] ~>(1~4)[read] file f["%/etc/passwd%"] as e1
return distinct p, f`
	res, err := runTBQL(en, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("path pattern rows = %v\nqueries: %v", res.Rows, res.Stats.DataQueries)
	}
	if res.Rows[0][0] != "/usr/sbin/apache2" {
		t.Errorf("row = %v", res.Rows[0])
	}
	// The compiled data query must be Cypher, not SQL.
	if !strings.Contains(res.Stats.DataQueries[0], "MATCH") {
		t.Errorf("path pattern compiled to %q", res.Stats.DataQueries[0])
	}
}

func TestExecutePathPatternTooShort(t *testing.T) {
	en := leakageEngine(t, 0)
	q := `proc p["%/usr/sbin/apache2%"] ~>(1~1)[read] file f["%/etc/passwd%"] as e1
return p, f`
	res, err := runTBQL(en, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("1-hop bound should not reach: %v", res.Rows)
	}
}

func TestExecutePropagationReducesWork(t *testing.T) {
	en := leakageEngine(t, 3000)
	full, err := runTBQL(en, fig2TBQL)
	if err != nil {
		t.Fatal(err)
	}
	en.DisablePropagation = true
	en.DisableScheduling = true
	naive, err := runTBQL(en, fig2TBQL)
	if err != nil {
		t.Fatal(err)
	}
	en.DisablePropagation = false
	en.DisableScheduling = false
	if len(full.Rows) != len(naive.Rows) {
		t.Fatalf("scheduled and naive disagree: %d vs %d rows", len(full.Rows), len(naive.Rows))
	}
	if full.Stats.Propagations == 0 {
		t.Error("scheduled run should propagate constraints")
	}
	if full.Stats.RowsFetched > naive.Stats.RowsFetched {
		t.Errorf("propagation fetched more rows (%d) than naive (%d)",
			full.Stats.RowsFetched, naive.Stats.RowsFetched)
	}
}

func TestExecuteOpDisjunction(t *testing.T) {
	en := leakageEngine(t, 0)
	q := `proc p1["%/bin/tar%"] read || write file f as e1
return distinct f`
	res, err := runTBQL(en, q)
	if err != nil {
		t.Fatal(err)
	}
	// tar reads /etc/passwd and writes /tmp/upload.tar (attack), plus
	// benign backup is disabled (benign=0), so exactly 2 files.
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestExecuteTimeWindow(t *testing.T) {
	en, w := newEngine(t, gen.Config{Seed: 5, Attacks: []gen.Attack{{Kind: gen.AttackDataLeakage}}})
	// Find the attack read time and query a window that excludes it.
	var readNS int64
	for _, st := range w.Truth {
		if st.Step == 1 {
			readNS = st.Record.StartNS
		}
	}
	q := `proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as e1 from 0 to 1
return p1`
	res, err := runTBQL(en, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("window [0,1] should exclude the read at %d", readNS)
	}
	q2 := `proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as e1 from 0 to 9223372036854775806
return p1`
	res, err = runTBQL(en, q2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("open window should include the read: %v", res.Rows)
	}
}

func TestExecuteAttrRel(t *testing.T) {
	en := leakageEngine(t, 500)
	// Explicit srcid equality instead of a shared entity ID.
	q := `proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1
proc p2 write file f2["%/tmp/upload.tar%"] as evt2
with evt1.srcid = evt2.srcid
return distinct p1, p2`
	res, err := runTBQL(en, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "/bin/tar" || res.Rows[0][1] != "/bin/tar" {
		t.Errorf("attr rel rows = %v", res.Rows)
	}
}

func TestExecuteReturnExplicitAttr(t *testing.T) {
	en := leakageEngine(t, 0)
	q := `proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as e1
return p1.pid, f1.name`
	res, err := runTBQL(en, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1] != "/etc/passwd" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0] == "" || res.Rows[0][0] == "0" {
		t.Errorf("pid not projected: %v", res.Rows[0])
	}
}

func TestExecuteErrors(t *testing.T) {
	en := leakageEngine(t, 0)
	if _, err := runTBQL(en, "not a query"); err == nil {
		t.Error("garbage should fail")
	}
	enNoGraph := &Engine{Rel: en.Rel}
	if _, err := runTBQL(enNoGraph, "proc p ~>[read] file f as e1\nreturn p"); err == nil {
		t.Error("path pattern without graph backend should fail")
	}
	enNoRel := &Engine{Graph: en.Graph}
	if _, err := runTBQL(enNoRel, "proc p read file f as e1\nreturn p"); err == nil {
		t.Error("engine without relational backend should fail")
	}
}

func TestExecuteScheduledOrderByScore(t *testing.T) {
	en := leakageEngine(t, 500)
	// The IP pattern (exact match) must execute before the unfiltered
	// read pattern.
	q := `proc p4 read file f4 as evt7
proc p4 connect ip i1["192.168.29.128"] as evt8
with evt7 before evt8
return distinct p4`
	res, err := runTBQL(en, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.DataQueries) != 2 {
		t.Fatalf("queries = %v", res.Stats.DataQueries)
	}
	if !strings.Contains(res.Stats.DataQueries[0], "connect") {
		t.Errorf("higher-score pattern should run first:\n%s", res.Stats.DataQueries[0])
	}
	// And the second query must carry a propagated constraint.
	if !strings.Contains(res.Stats.DataQueries[1], "IN (") {
		t.Errorf("propagation missing:\n%s", res.Stats.DataQueries[1])
	}
}

func TestPruningScore(t *testing.T) {
	q, err := tbql.Parse(fig2TBQL)
	if err != nil {
		t.Fatal(err)
	}
	// evt1 (two filters) must outscore evt2's successor evt3 pattern
	// (one filter on subject only at first use? evt3 has f2 unfiltered +
	// p2 filtered = 1 filter).
	s1 := PruningScore(&q.Patterns[0], DefaultMaxHops)
	s3 := PruningScore(&q.Patterns[2], DefaultMaxHops)
	if s1 <= s3 {
		t.Errorf("evt1 score %d should exceed evt3 score %d", s1, s3)
	}
	// Path pattern with smaller max outscores larger max.
	p1 := tbql.EventPattern{IsPath: true, MinHops: 1, MaxHops: 2, Ops: []string{"read"}}
	p2 := tbql.EventPattern{IsPath: true, MinHops: 1, MaxHops: 10, Ops: []string{"read"}}
	if PruningScore(&p1, DefaultMaxHops) <= PruningScore(&p2, DefaultMaxHops) {
		t.Error("smaller max path length should score higher")
	}
}

func TestCompileSQLShape(t *testing.T) {
	q, err := tbql.Parse(fig2TBQL)
	if err != nil {
		t.Fatal(err)
	}
	sql := compileSQL(&q.Patterns[0], nil)
	for _, want := range []string{
		"JOIN entities s ON e.srcid = s.id",
		"JOIN entities o ON e.dstid = o.id",
		"e.optype = 'read'",
		"s.exename LIKE '%/bin/tar%'",
		"o.name LIKE '%/etc/passwd%'",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("compiled SQL missing %q:\n%s", want, sql)
		}
	}
}

func TestCompileCypherShape(t *testing.T) {
	q, err := tbql.Parse("proc p[\"%/usr/sbin/apache2%\"] ~>(2~4)[read] file f[name = \"/etc/passwd\"] as e1\nreturn p, f")
	if err != nil {
		t.Fatal(err)
	}
	cq := compileCypher(&q.Patterns[0], nil, DefaultMaxHops)
	for _, want := range []string{
		"[:event*1..3]",
		"{optype: 'read'}",
		"{name: '/etc/passwd'}",
		"CONTAINS '/usr/sbin/apache2'",
		"RETURN s.id, o.id",
	} {
		if !strings.Contains(cq, want) {
			t.Errorf("compiled Cypher missing %q:\n%s", want, cq)
		}
	}
}

func TestLikeToRegex(t *testing.T) {
	cases := map[string]string{
		"%tar%": ".*tar.*",
		"a_c":   "a.c",
		"a.b":   `a\.b`,
		"100%":  "100.*",
	}
	for in, want := range cases {
		if got := likeToRegex(in); got != want {
			t.Errorf("likeToRegex(%q) = %q, want %q", in, got, want)
		}
	}
}
