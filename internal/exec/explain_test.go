package exec

import (
	"strings"
	"testing"

	"repro/internal/tbql"
)

func TestAttrRelLiteral(t *testing.T) {
	en := leakageEngine(t, 500)
	// The attack read of /etc/passwd transfers 2949 bytes; benign sshd
	// reads transfer 2048. The amount filter isolates the attack.
	q := `proc p read file f["%/etc/passwd%"] as evt1
with evt1.amount > 2500
return distinct p`
	res, err := runTBQL(en, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "/bin/tar" {
		t.Errorf("amount filter rows = %v", res.Rows)
	}
	// Inverted threshold excludes the attack.
	q = `proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as evt1
with evt1.amount < 100
return p`
	res, err = runTBQL(en, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("inverted amount filter rows = %v", res.Rows)
	}
}

func TestAttrRelLiteralNegative(t *testing.T) {
	en := leakageEngine(t, 0)
	q := `proc p["%/bin/tar%"] read file f as evt1
with evt1.amount > -1
return distinct f`
	if _, err := runTBQL(en, q); err != nil {
		t.Errorf("negative literal: %v", err)
	}
}

func TestExplain(t *testing.T) {
	en := leakageEngine(t, 100)
	q, err := tbql.Parse(fig2TBQL)
	if err != nil {
		t.Fatal(err)
	}
	eps, err := en.Explain(nil, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 8 {
		t.Fatalf("explained %d patterns", len(eps))
	}
	// The store carries ingest-time stats, so the order is cost-based:
	// every pattern reports an estimate and the anchor (first pattern)
	// is the globally most selective one.
	for _, ep := range eps {
		if !ep.CostBased || ep.EstRows < 0 {
			t.Errorf("pattern %s: CostBased=%v EstRows=%d", ep.Name, ep.CostBased, ep.EstRows)
		}
	}
	for _, ep := range eps[1:] {
		if ep.EstRows < eps[0].EstRows {
			t.Errorf("anchor %s (est %d) is not minimal: %s estimates %d",
				eps[0].Name, eps[0].EstRows, ep.Name, ep.EstRows)
		}
	}
	for _, ep := range eps {
		if ep.Backend != "sql" || !strings.Contains(ep.DataQuery, "SELECT") {
			t.Errorf("pattern %s: backend=%s query=%q", ep.Name, ep.Backend, ep.DataQuery)
		}
	}

	// The escape hatch falls back to the static pruning-score order:
	// scores non-increasing, no estimates reported.
	en.DisableCostOptimizer = true
	eps, err = en.Explain(nil, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(eps); i++ {
		if eps[i].Score > eps[i-1].Score {
			t.Errorf("static explain order not by score: %d after %d", eps[i].Score, eps[i-1].Score)
		}
	}
	for _, ep := range eps {
		if ep.CostBased || ep.EstRows != -1 {
			t.Errorf("static pattern %s: CostBased=%v EstRows=%d", ep.Name, ep.CostBased, ep.EstRows)
		}
	}
}

func TestExplainPathPattern(t *testing.T) {
	en := leakageEngine(t, 0)
	q, err := tbql.Parse(`proc p ~>(1~3)[read] file f as e1
return p`)
	if err != nil {
		t.Fatal(err)
	}
	eps, err := en.Explain(nil, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eps[0].Backend != "cypher" || !strings.Contains(eps[0].DataQuery, "MATCH") {
		t.Errorf("path pattern explain: %+v", eps[0])
	}
}

// selfLoopTBQL's second pattern is a self-loop: its subject and object
// are one variable, which the first pattern binds.
const selfLoopTBQL = `proc p fork proc c as e1
proc c fork proc c as e2
return p, c`

// TestExplainMatchesHuntShape: for every executed pattern, Explain must
// report the data query and propagated variables of the shape the hunt
// actually bound (Stats.dq) — including a self-loop pattern, whose one
// shared variable constrains both its srcid and its dstid.
func TestExplainMatchesHuntShape(t *testing.T) {
	en := leakageEngine(t, 500)
	for _, tc := range []struct {
		name, src string
		textual   bool
	}{
		{"self-loop/textual", selfLoopTBQL, true},
		{"self-loop/scheduled", selfLoopTBQL, false},
		{"fig2/scheduled", fig2TBQL, false},
	} {
		en.DisableScheduling = tc.textual
		q, err := tbql.Parse(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		eps, err := en.Explain(nil, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := en.ExecuteCursor(nil, q, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		refs := cur.Stats().dq
		cur.Close()
		if len(refs) != len(eps) {
			t.Fatalf("%s: hunt executed %d data queries, Explain lists %d", tc.name, len(refs), len(eps))
		}
		for i, ref := range refs {
			pat, ep := &q.Patterns[ref.pi], eps[i]
			if ep.Name != pat.Name {
				t.Fatalf("%s: position %d: hunt ran %s, Explain lists %s", tc.name, i, pat.Name, ep.Name)
			}
			var shape propShape
			var vars []string
			if ref.subjIDs != nil {
				shape |= propSubj
				vars = append(vars, pat.Subj.ID)
			}
			if ref.objIDs != nil {
				shape |= propObj
				if pat.Obj.ID != pat.Subj.ID || ref.subjIDs == nil {
					vars = append(vars, pat.Obj.ID)
				}
			}
			plan, err := en.compilePlan(pat, shape, DefaultMaxHops)
			if err != nil {
				t.Fatal(err)
			}
			if ep.DataQuery != plan.text {
				t.Errorf("%s %s: Explain shows\n  %s\nthe hunt bound\n  %s", tc.name, ep.Name, ep.DataQuery, plan.text)
			}
			if strings.Join(ep.Propagated, ",") != strings.Join(vars, ",") {
				t.Errorf("%s %s: Explain propagates %v, the hunt bound %v", tc.name, ep.Name, ep.Propagated, vars)
			}
		}
		if tc.textual {
			e2 := eps[1].DataQuery
			if !strings.Contains(e2, "e.srcid IN $") || !strings.Contains(e2, "e.dstid IN $") {
				t.Errorf("self-loop pattern should bind both sides: %s", e2)
			}
		}
	}
}
