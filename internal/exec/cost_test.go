package exec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/audit/gen"
	"repro/internal/tbql"
)

// skewedEngine loads a deliberately skewed multi-host workload: one hot
// host carrying almost all events and two cold hosts, one of which also
// holds the data-leakage attack. Uniform-selectivity assumptions are at
// their worst here — a pattern pinned to a cold host or a rare
// operation is orders of magnitude smaller than a hot-host scan, and
// only the ingest-time stats can tell the two apart.
func skewedEngine(tb testing.TB, shards, hotEvents int) *Engine {
	tb.Helper()
	en, _ := newShardedEngine(tb, shards,
		gen.Config{Seed: 11, Host: "hot", BenignEvents: hotEvents},
		gen.Config{Seed: 12, Host: "cold1", BenignEvents: 40,
			Attacks: []gen.Attack{{Kind: gen.AttackDataLeakage, At: 10 * time.Minute}}},
		gen.Config{Seed: 13, Host: "cold2", BenignEvents: 40},
	)
	return en
}

// skewedReorderTBQL pairs a broad hot scan with a rare-operation
// pattern sharing the process variable. The static scheduler sees two
// unfiltered patterns (equal pruning scores, textual order) and anchors
// on the huge read pattern; the cost optimizer anchors on the rare
// delete pattern and propagates its few process IDs into the read.
const skewedReorderTBQL = `proc p read file f1 as e1
proc p delete file f2 as e2
return distinct p, f2`

// TestSkewedCostEquivalence is the optimizer-on-vs-off equivalence
// suite on the skew-heavy workload: randomly composed queries mixing
// hot-host scans, cold-host pins, and rare event types must produce
// identical match and row sets with cost-based scheduling and with the
// static order — and the fixture must actually provoke reorders, or
// the suite is vacuous.
func TestSkewedCostEquivalence(t *testing.T) {
	base := skewedEngine(t, 4, 900)
	cost := &Engine{Rel: base.Rel, Graph: base.Graph}
	static := &Engine{Rel: base.Rel, Graph: base.Graph, DisableCostOptimizer: true}

	rng := rand.New(rand.NewSource(606))
	hosts := []string{"hot", "cold1", "cold2"}
	exes := []string{"/bin/tar", "/usr/bin/curl", "/usr/sbin/logrotate", "/usr/bin/chrome"}
	files := []string{"/etc/passwd", "/tmp/upload.tar", "/var/log/syslog"}
	fileOps := []string{"read", "write", "delete", "rename", "read || write", "!read"}

	reorders := 0
	const cases = 50
	for i := 0; i < cases; i++ {
		nPat := 1 + rng.Intn(2)
		var b strings.Builder
		used := map[string]bool{}
		for j := 0; j < nPat; j++ {
			subjID := fmt.Sprintf("p%d", rng.Intn(2))
			objID := fmt.Sprintf("f%d", rng.Intn(2))
			used[subjID], used[objID] = true, true
			subjF, objF := "", ""
			switch rng.Intn(5) {
			case 0:
				subjF = fmt.Sprintf(`["%%%s%%"]`, exes[rng.Intn(len(exes))])
			case 1:
				subjF = fmt.Sprintf(`[host = "%s"]`, hosts[rng.Intn(len(hosts))])
			}
			if rng.Intn(3) == 0 {
				objF = fmt.Sprintf(`["%%%s%%"]`, files[rng.Intn(len(files))])
			}
			if rng.Intn(6) == 0 {
				fmt.Fprintf(&b, "proc %s%s ~>(1~%d)[read] file %s%s as e%d\n",
					subjID, subjF, 2+rng.Intn(2), objID, objF, j+1)
			} else {
				fmt.Fprintf(&b, "proc %s%s %s file %s%s as e%d\n",
					subjID, subjF, fileOps[rng.Intn(len(fileOps))], objID, objF, j+1)
			}
		}
		var ret []string
		for _, id := range []string{"p0", "p1", "f0", "f1"} {
			if used[id] {
				ret = append(ret, id)
			}
		}
		// Distinct projection throughout: two unfiltered patterns over the
		// hot host cross-join to millions of duplicate rows otherwise,
		// which tests row-materialization speed rather than the optimizer.
		b.WriteString("return distinct " + strings.Join(ret, ", "))
		src := b.String()

		cres, err := runTBQL(cost, src)
		if err != nil {
			t.Fatalf("case %d cost: %v\n%s", i, err, src)
		}
		sres, err := runTBQL(static, src)
		if err != nil {
			t.Fatalf("case %d static: %v\n%s", i, err, src)
		}
		if cres.Stats.Reordered {
			reorders++
		}
		if sres.Stats.CostBased || sres.Stats.Reordered {
			t.Fatalf("case %d: DisableCostOptimizer engine reports cost stats %+v", i, sres.Stats)
		}
		cm, sm := canonicalMatches(cres.Matches), canonicalMatches(sres.Matches)
		if len(cm) != len(sm) {
			t.Fatalf("case %d: %d cost matches, %d static\n%s", i, len(cm), len(sm), src)
		}
		for k := range cm {
			if cm[k] != sm[k] {
				t.Fatalf("case %d match %d: cost %q, static %q\n%s", i, k, cm[k], sm[k], src)
			}
		}
		got, want := sortedRows(cres.Rows), sortedRows(sres.Rows)
		if len(got) != len(want) {
			t.Fatalf("case %d: %d cost rows, %d static\n%s", i, len(got), len(want), src)
		}
		for r := range got {
			if got[r] != want[r] {
				t.Fatalf("case %d row %d: cost %q, static %q\n%s", i, r, got[r], want[r], src)
			}
		}
	}
	if reorders == 0 {
		t.Error("no query was reordered; the skew fixture does not exercise the optimizer")
	}
}

// TestSkewedAnchorsRareOp pins the headline behavior: on the skewed
// store the optimizer anchors the rare delete pattern ahead of the hot
// read scan, the hunt reports the reorder, and it fetches far fewer
// rows than the static order.
func TestSkewedAnchorsRareOp(t *testing.T) {
	base := skewedEngine(t, 1, 3000)
	cost := &Engine{Rel: base.Rel, Graph: base.Graph}
	static := &Engine{Rel: base.Rel, Graph: base.Graph, DisableCostOptimizer: true}

	q, err := tbql.Parse(skewedReorderTBQL)
	if err != nil {
		t.Fatal(err)
	}
	eps, err := cost.Explain(nil, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eps[0].Name != "e2" {
		t.Errorf("optimizer anchored %s (est %d), want the rare delete pattern e2",
			eps[0].Name, eps[0].EstRows)
	}
	if eps[0].EstRows >= eps[1].EstRows {
		t.Errorf("anchor estimate %d is not below %d", eps[0].EstRows, eps[1].EstRows)
	}

	cres, err := runTBQL(cost, skewedReorderTBQL)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := runTBQL(static, skewedReorderTBQL)
	if err != nil {
		t.Fatal(err)
	}
	if !cres.Stats.CostBased || !cres.Stats.Reordered {
		t.Errorf("cost hunt stats = %+v, want CostBased and Reordered", cres.Stats)
	}
	if len(cres.Rows) != len(sres.Rows) {
		t.Fatalf("cost %d rows, static %d", len(cres.Rows), len(sres.Rows))
	}
	if cres.Stats.RowsFetched*2 > sres.Stats.RowsFetched {
		t.Errorf("reordered hunt fetched %d rows vs static %d; expected a large reduction",
			cres.Stats.RowsFetched, sres.Stats.RowsFetched)
	}
}

// BenchmarkHuntSkewed is the acceptance benchmark for cost-based
// optimization on the skewed store, cost vs static:
//
//   - reorder: the two-pattern rare-anchor hunt — the optimizer fetches
//     the few deletes first and propagates, the static order scans the
//     hot reads first.
//   - capped: a page-bounded single-pattern hot scan — the optimizer
//     pushes the page bound into the data query, the static path
//     fetches the full match set to serve 10 rows.
//
// Both run the identical query through the identical API; only
// DisableCostOptimizer differs.
func BenchmarkHuntSkewed(b *testing.B) {
	base := skewedEngine(b, 1, 20000)
	engines := map[string]*Engine{
		"cost":   {Rel: base.Rel, Graph: base.Graph},
		"static": {Rel: base.Rel, Graph: base.Graph, DisableCostOptimizer: true},
	}
	const pageSize = 10
	const capScanTBQL = "proc p read file f as e1\nreturn p, f"

	for _, bench := range []struct{ group, query string }{
		{"reorder", skewedReorderTBQL},
		{"capped", capScanTBQL},
	} {
		for _, mode := range []string{"cost", "static"} {
			en := engines[mode]
			b.Run(bench.group+"/"+mode, func(b *testing.B) {
				b.ReportAllocs()
				fetched := 0
				for i := 0; i < b.N; i++ {
					cur, err := openTBQL(en, bench.query, pageSize+1)
					if err != nil {
						b.Fatal(err)
					}
					rows := 0
					for rows < pageSize && cur.Next() {
						rows++
					}
					if rows == 0 {
						b.Fatal("empty page")
					}
					fetched = cur.Stats().RowsFetched
					cur.Close()
				}
				b.ReportMetric(float64(fetched), "rows-fetched")
			})
		}
	}
}
