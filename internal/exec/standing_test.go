package exec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/audit/gen"
	"repro/internal/graphstore"
	"repro/internal/relstore"
	"repro/internal/tbql"
)

// standingQueries composes random queries in the generated workload's
// vocabulary: multi-pattern joins, paths, temporal relations, and a mix
// of distinct and non-distinct projections.
func standingQueries(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	exes := []string{"/bin/tar", "/usr/bin/curl", "/bin/bash", "/usr/bin/chrome", "/usr/sbin/sshd"}
	files := []string{"/etc/passwd", "/tmp/upload.tar", "/var/log/syslog", "/etc/crontab"}
	fileOps := []string{"read", "write", "read || write"}
	var out []string
	for i := 0; i < n; i++ {
		nPat := 1 + rng.Intn(3)
		var b strings.Builder
		var names []string
		used := map[string]bool{}
		for j := 0; j < nPat; j++ {
			name := fmt.Sprintf("e%d", j+1)
			names = append(names, name)
			subjID := fmt.Sprintf("p%d", rng.Intn(2))
			objID := fmt.Sprintf("f%d", rng.Intn(2))
			used[subjID], used[objID] = true, true
			subjF, objF := "", ""
			if rng.Intn(2) == 0 {
				subjF = fmt.Sprintf(`["%%%s%%"]`, exes[rng.Intn(len(exes))])
			}
			if rng.Intn(2) == 0 {
				objF = fmt.Sprintf(`["%%%s%%"]`, files[rng.Intn(len(files))])
			}
			if rng.Intn(5) == 0 {
				fmt.Fprintf(&b, "proc %s%s ~>(1~3)[read] file %s%s as %s\n", subjID, subjF, objID, objF, name)
			} else {
				fmt.Fprintf(&b, "proc %s%s %s file %s%s as %s\n", subjID, subjF, fileOps[rng.Intn(len(fileOps))], objID, objF, name)
			}
		}
		if nPat > 1 && rng.Intn(2) == 0 {
			fmt.Fprintf(&b, "with %s before %s\n", names[0], names[1])
		}
		var ret []string
		for _, id := range []string{"p0", "p1", "f0", "f1"} {
			if used[id] {
				ret = append(ret, id)
			}
		}
		distinct := ""
		if rng.Intn(2) == 0 {
			distinct = "distinct "
		}
		b.WriteString("return " + distinct + strings.Join(ret, ", "))
		out = append(out, b.String())
	}
	return out
}

// TestStandingHuntIncrementalEquivalence is the engine-level telescope
// property: load half the workload, register standing hunts, load the
// rest, and require the union of the two delta batches to equal a full
// re-execution — with a third Advance over an unchanged store emitting
// nothing.
func TestStandingHuntIncrementalEquivalence(t *testing.T) {
	p := audit.NewParser()
	w := gen.Generate(gen.Config{
		Seed:         42,
		BenignEvents: 1200,
		Attacks:      []gen.Attack{{Kind: gen.AttackDataLeakage, At: 10 * time.Minute}},
	})
	for _, r := range w.Records {
		if _, err := p.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	events := p.Events()
	half := len(events) / 2
	rel, err := relstore.NewSharded(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.Load(p.Entities(), events[:half]); err != nil {
		t.Fatal(err)
	}
	g := graphstore.NewSharded(1)
	if err := g.Load(p.Entities(), events[:half]); err != nil {
		t.Fatal(err)
	}
	en := &Engine{Rel: rel, Graph: g}

	queries := standingQueries(40, 99)
	hunts := make([]*StandingHunt, len(queries))
	unions := make([][][]string, len(queries))
	for i, src := range queries {
		q, err := tbql.Parse(src)
		if err != nil {
			t.Fatalf("query %d: %v\n%s", i, err, src)
		}
		if hunts[i], err = en.NewStandingHunt(q); err != nil {
			t.Fatalf("register %d: %v\n%s", i, err, src)
		}
		b, err := hunts[i].Advance()
		if err != nil {
			t.Fatalf("backfill %d: %v\n%s", i, err, src)
		}
		unions[i] = append(unions[i], b.Rows...)
	}

	if err := rel.LoadEvents(events[half:]); err != nil {
		t.Fatal(err)
	}
	if err := g.LoadEdges(events[half:]); err != nil {
		t.Fatal(err)
	}

	for i, h := range hunts {
		b, err := h.Advance()
		if err != nil {
			t.Fatalf("delta %d: %v\n%s", i, err, queries[i])
		}
		unions[i] = append(unions[i], b.Rows...)
		again, err := h.Advance()
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Rows) != 0 {
			t.Fatalf("query %d: advance over an unchanged store emitted %d rows\n%s",
				i, len(again.Rows), queries[i])
		}
		res, err := runTBQL(en, queries[i])
		if err != nil {
			t.Fatalf("re-execution %d: %v\n%s", i, err, queries[i])
		}
		got, want := sortedRows(unions[i]), sortedRows(res.Rows)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d incremental rows, %d re-executed\n%s",
				i, len(got), len(want), queries[i])
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("query %d row %d: %q vs %q\n%s", i, j, got[j], want[j], queries[i])
			}
		}
	}
}

// TestStandingHuntResumeToken: a token round-trips through
// ResumeStandingHunt (resumed hunt sees nothing new on an unchanged
// store), and the validation rejects foreign, malformed, and
// ahead-of-store tokens.
func TestStandingHuntResumeToken(t *testing.T) {
	en := leakageEngine(t, 800)
	const src = "proc p[\"%/bin/tar%\"] read file f as e1\nreturn distinct p, f"
	q, err := tbql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	h, err := en.NewStandingHunt(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Advance()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) == 0 {
		t.Fatal("backfill found nothing; fixture broken")
	}
	token := b.Resume

	q2, err := tbql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := en.ResumeStandingHunt(q2, token)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	rb, err := resumed.Advance()
	if err != nil {
		t.Fatal(err)
	}
	if len(rb.Rows) != 0 {
		t.Fatalf("resumed hunt re-emitted %d rows the token already covered", len(rb.Rows))
	}
	if rb.Resume != token {
		t.Fatalf("resumed token drifted: %q vs %q", rb.Resume, token)
	}

	// Foreign query: same shape class, different op.
	q3, err := tbql.Parse("proc p[\"%/bin/tar%\"] write file f as e1\nreturn distinct p, f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := en.ResumeStandingHunt(q3, token); err == nil {
		t.Fatal("token of a different query must be rejected")
	}

	// Malformed tokens.
	for _, bad := range []string{
		"",
		"v2 q=0 ev= g=",
		"v1 q=notahex ev=0:0 g=0:0",
		"v1 q=1 ev=0 g=0:0",
		"v1 q=1 ev=0:x g=0:0",
		"v1 ev=0:0",
	} {
		if _, err := en.ResumeStandingHunt(q2, bad); err == nil {
			t.Fatalf("malformed token %q accepted", bad)
		}
	}

	// Ahead-of-store: marks the store never reached mean acked data was
	// lost; resuming must fail loudly instead of skipping it.
	ahead := fmt.Sprintf("v1 q=%x ev=0:99999999 g=0:99999999", queryFingerprint(q2))
	if _, err := en.ResumeStandingHunt(q2, ahead); err == nil {
		t.Fatal("ahead-of-store token must be rejected")
	}
	// Wrong shard layout: a 2-shard token on a 1-shard store.
	twoShard := fmt.Sprintf("v1 q=%x ev=0:0,1:0 g=0:0,1:0", queryFingerprint(q2))
	if _, err := en.ResumeStandingHunt(q2, twoShard); err == nil {
		t.Fatal("mismatched shard layout must be rejected")
	}
}

// TestGrowIndexCut pins the bucket-bound helper: ascending buckets cut
// at a row-id bound by binary search.
func TestGrowIndexCut(t *testing.T) {
	bucket := []int32{0, 2, 5, 5, 9}
	cases := []struct {
		hi   int
		want int
	}{
		{0, 0}, {1, 1}, {2, 1}, {3, 2}, {5, 2}, {6, 4}, {9, 4}, {10, 5}, {100, 5},
	}
	for _, c := range cases {
		if got := len(cut(bucket, c.hi)); got != c.want {
			t.Errorf("cut(%v, %d) kept %d ids, want %d", bucket, c.hi, got, c.want)
		}
	}
	if got := cut(nil, 3); len(got) != 0 {
		t.Errorf("cut(nil) = %v", got)
	}
}
