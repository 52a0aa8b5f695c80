package exec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/audit/gen"
	"repro/internal/relstore"
)

// TestPreparedMatchesReference is the equivalence property test for
// the prepared-plan pipeline: every randomly composed query — host
// filters, disjunctions, contradictions, path patterns, temporal and
// attribute relations, distinct and plain projections — must yield the
// identical match set and projected row set under prepared-plan
// execution (bound set parameters, cached templates) and under the
// reference evaluator (rendered text per shard, no propagation), on
// both a 1-shard and a 4-shard store. Each query runs twice on the
// prepared engine, so the second execution exercises the warm
// plan-cache path and must agree with the cold one, propagation
// accounting included.
func TestPreparedMatchesReference(t *testing.T) {
	hosts := []string{"host1", "host2", "host3"}
	cfgs := []gen.Config{
		{Seed: 42, Host: hosts[0], BenignEvents: 400,
			Attacks: []gen.Attack{{Kind: gen.AttackDataLeakage, At: 10 * time.Minute}}},
		{Seed: 43, Host: hosts[1], BenignEvents: 400},
		{Seed: 44, Host: hosts[2], BenignEvents: 400,
			Attacks: []gen.Attack{{Kind: gen.AttackDataLeakage, At: 20 * time.Minute}}},
	}
	one, _ := newShardedEngine(t, 1, cfgs...)
	many, _ := newShardedEngine(t, 4, cfgs...)

	modes := []struct {
		name     string
		prepared *Engine
	}{
		{"1-shard", &Engine{Rel: one.Rel, Graph: one.Graph, Plans: NewPlanCache(64)}},
		{"4-shard", &Engine{Rel: many.Rel, Graph: many.Graph, Plans: NewPlanCache(64)}},
		// The same cross-check with the cost optimizer off: the prepared
		// pipeline must match the reference in static order too.
		{"4-shard-static", &Engine{Rel: many.Rel, Graph: many.Graph, Plans: NewPlanCache(64), DisableCostOptimizer: true}},
	}

	rng := rand.New(rand.NewSource(5150))
	exes := []string{"/bin/tar", "/usr/bin/curl", "/bin/bash", "/usr/bin/chrome", "/usr/sbin/sshd"}
	files := []string{"/etc/passwd", "/tmp/upload.tar", "/var/log/syslog", "/etc/crontab"}
	fileOps := []string{"read", "write", "read || write", "!read"}
	attrOps := []string{"=", "!=", "<", "<=", ">", ">="}
	evtAttrs := []string{"srcid", "dstid", "starttime", "amount", "id"}

	const cases = 120
	for i := 0; i < cases; i++ {
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
			switch rng.Intn(6) {
			case 0:
				subjF = fmt.Sprintf(`["%%%s%%"]`, exes[rng.Intn(len(exes))])
			case 1:
				subjF = fmt.Sprintf(`[host = "%s"]`, hosts[rng.Intn(len(hosts))])
			case 2:
				subjF = fmt.Sprintf(`[host = "%s" && "%%%s%%"]`,
					hosts[rng.Intn(len(hosts))], exes[rng.Intn(len(exes))])
			case 3:
				subjF = fmt.Sprintf(`[host = "%s" || host = "%s"]`,
					hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))])
			}
			if rng.Intn(3) == 0 {
				objF = fmt.Sprintf(`["%%%s%%"]`, files[rng.Intn(len(files))])
			} else if rng.Intn(6) == 0 {
				objF = fmt.Sprintf(`[host = "%s"]`, hosts[rng.Intn(len(hosts))])
			}
			if rng.Intn(5) == 0 {
				fmt.Fprintf(&b, "proc %s%s ~>(1~%d)[read] file %s%s as %s\n",
					subjID, subjF, 2+rng.Intn(2), objID, objF, name)
			} else {
				fmt.Fprintf(&b, "proc %s%s %s file %s%s as %s\n",
					subjID, subjF, fileOps[rng.Intn(len(fileOps))], objID, objF, name)
			}
		}
		var rels []string
		if nPat > 1 && rng.Intn(2) == 0 {
			a, c := rng.Intn(nPat), rng.Intn(nPat)
			if a != c {
				op := "before"
				if rng.Intn(2) == 0 {
					op = "after"
				}
				rels = append(rels, fmt.Sprintf("%s %s %s", names[a], op, names[c]))
			}
		}
		if rng.Intn(2) == 0 {
			rels = append(rels, fmt.Sprintf("%s.%s %s %d",
				names[rng.Intn(nPat)], evtAttrs[rng.Intn(len(evtAttrs))],
				attrOps[rng.Intn(len(attrOps))], rng.Intn(5000)))
		}
		if len(rels) > 0 {
			b.WriteString("with " + strings.Join(rels, ", ") + "\n")
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
		src := b.String()

		// One reference evaluation per store.
		refs := map[*relstore.Sharded]*Result{}
		for _, md := range modes {
			ref := refs[md.prepared.Rel]
			if ref == nil {
				var err error
				if ref, err = referenceRun(md.prepared, src); err != nil {
					t.Fatalf("case %d %s reference: %v\n%s", i, md.name, err, src)
				}
				refs[md.prepared.Rel] = ref
			}
			rm, want := canonicalMatches(ref.Matches), sortedRows(ref.Rows)
			// Cold, then warm: the second run resolves every pattern from
			// the plan cache and must not drift.
			var cold Stats
			for run, label := range []string{"cold", "warm"} {
				pres, err := runTBQL(md.prepared, src)
				if err != nil {
					t.Fatalf("case %d %s prepared(%s): %v\n%s", i, md.name, label, err, src)
				}
				pm := canonicalMatches(pres.Matches)
				if len(pm) != len(rm) {
					t.Fatalf("case %d %s %s: %d prepared matches, %d reference\n%s",
						i, md.name, label, len(pm), len(rm), src)
				}
				for k := range pm {
					if pm[k] != rm[k] {
						t.Fatalf("case %d %s %s match %d: prepared %q, reference %q\n%s",
							i, md.name, label, k, pm[k], rm[k], src)
					}
				}
				got := sortedRows(pres.Rows)
				if len(got) != len(want) {
					t.Fatalf("case %d %s %s: %d prepared rows, %d reference\n%s",
						i, md.name, label, len(got), len(want), src)
				}
				for r := range got {
					if got[r] != want[r] {
						t.Fatalf("case %d %s %s row %d: prepared %q, reference %q\n%s",
							i, md.name, label, r, got[r], want[r], src)
					}
				}
				if run == 0 {
					cold = pres.Stats
					continue
				}
				// The warm run must propagate exactly as the cold one did.
				if pres.Stats.Propagations != cold.Propagations ||
					pres.Stats.PropagationsSkipped != cold.PropagationsSkipped {
					t.Fatalf("case %d %s: propagation stats drifted (warm %d/%d, cold %d/%d)\n%s",
						i, md.name, pres.Stats.Propagations, pres.Stats.PropagationsSkipped,
						cold.Propagations, cold.PropagationsSkipped, src)
				}
				if !pres.Stats.ShortCircuit && len(pres.Stats.DataQueries) > 0 &&
					pres.Stats.PlanCacheHits == 0 {
					t.Fatalf("case %d %s warm run resolved no plans from the cache\n%s", i, md.name, src)
				}
			}
		}
	}
}

// TestPreparedLargePropagationSet: a propagation set far above the old
// 512-ID text-pipeline cap must be propagated (PropagationsSkipped ==
// 0) under the raised default, and prepared execution must match the
// reference evaluator — under both 1 and 4 shards.
func TestPreparedLargePropagationSet(t *testing.T) {
	// 20 workers × 40 files: the f1 variable accumulates 800 distinct
	// file IDs, which the third pattern receives as a propagated set —
	// beyond the old 512 default, well under the raised one.
	query := `proc p["%worker%"] read file f1 as e1
proc p write file f2 as e2
proc p2 write file f1 as e3
return p, f1, f2`
	var want []string // the reference rows, from the 1-shard store
	for _, shards := range []int{1, 4} {
		en := fanoutShardedEngine(t, shards, 3, 20, 40, 1)
		prepared := &Engine{Rel: en.Rel, Plans: NewPlanCache(16)}

		pres, err := runTBQL(prepared, query)
		if err != nil {
			t.Fatalf("%d shards prepared: %v", shards, err)
		}
		if pres.Stats.PropagationsSkipped != 0 {
			t.Errorf("%d shards: PropagationsSkipped = %d, want 0 (default cap %d)",
				shards, pres.Stats.PropagationsSkipped, DefaultMaxPropagatedIDs)
		}
		if pres.Stats.Propagations == 0 {
			t.Fatalf("%d shards: fixture propagated nothing", shards)
		}
		// The old default would have dropped the 800-ID f1 set.
		if old := 512; pres.Stats.PropagationsSkipped == 0 {
			capped := &Engine{Rel: en.Rel, MaxPropagatedIDs: old}
			cres, err := runTBQL(capped, query)
			if err != nil {
				t.Fatal(err)
			}
			if cres.Stats.PropagationsSkipped == 0 {
				t.Errorf("%d shards: fixture's sets fit the old %d cap; raise the fixture size", shards, old)
			}
		}

		if want == nil {
			ref, err := referenceRun(en, query)
			if err != nil {
				t.Fatalf("%d shards reference: %v", shards, err)
			}
			want = sortedRows(ref.Rows)
		}
		got := sortedRows(pres.Rows)
		if len(got) != len(want) {
			t.Fatalf("%d shards: %d prepared rows, %d reference", shards, len(got), len(want))
		}
		for r := range got {
			if got[r] != want[r] {
				t.Fatalf("%d shards row %d: prepared %q, reference %q", shards, r, got[r], want[r])
			}
		}
	}
}

// TestPlanCacheLRUAndStats: repeated hunts hit the cache, distinct
// patterns miss and fill it, and the LRU cap evicts cold templates.
func TestPlanCacheLRUAndStats(t *testing.T) {
	en := leakageEngine(t, 500)
	en.Plans = NewPlanCache(2)

	run := func(src string) Stats {
		res, err := runTBQL(en, src)
		if err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		return res.Stats
	}

	q1 := `proc p["%/bin/tar%"] read file f as e1` + "\nreturn p, f"
	st := run(q1)
	if st.PlanCacheMisses == 0 || st.PlanCacheHits != 0 {
		t.Fatalf("cold hunt stats = %+v", st)
	}
	st = run(q1)
	if st.PlanCacheHits == 0 || st.PlanCacheMisses != 0 {
		t.Fatalf("warm hunt stats = %+v", st)
	}

	// The plan key clears the binding name: the same pattern under a
	// different name must hit.
	st = run(`proc p["%/bin/tar%"] read file f as other` + "\nreturn p, f")
	if st.PlanCacheHits == 0 || st.PlanCacheMisses != 0 {
		t.Fatalf("renamed pattern stats = %+v", st)
	}

	// Two more distinct patterns overflow the 2-entry cap...
	run(`proc p["%/bin/bash%"] read file f as e1` + "\nreturn p, f")
	run(`proc p["%/usr/bin/curl%"] read file f as e1` + "\nreturn p, f")
	if n := en.Plans.Len(); n != 2 {
		t.Fatalf("cache len = %d, want 2", n)
	}
	// ...evicting q1's template, so it misses again.
	st = run(q1)
	if st.PlanCacheMisses == 0 {
		t.Fatalf("evicted pattern should miss, stats = %+v", st)
	}

	hits, misses := en.Plans.Counters()
	if hits < 2 || misses < 3 {
		t.Fatalf("cumulative counters = %d hits / %d misses", hits, misses)
	}
}

// TestLazyDataQueries: the hot cursor path must not render data-query
// text; DataQueries renders on demand, propagated IN-lists included,
// and the rendered text is what ran — executed on every shard of an
// uncapped hunt's store, the texts fetch exactly Stats.RowsFetched rows.
func TestLazyDataQueries(t *testing.T) {
	en, _ := newShardedEngine(t, 4,
		gen.Config{Seed: 42, Host: "host1", BenignEvents: 500,
			Attacks: []gen.Attack{{Kind: gen.AttackDataLeakage, At: 10 * time.Minute}}},
		gen.Config{Seed: 43, Host: "host2", BenignEvents: 500,
			Attacks: []gen.Attack{{Kind: gen.AttackDataLeakage, At: 20 * time.Minute}}},
	)
	src := `proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as e1
proc p write file f2 as e2
return p, f, f2`

	cur, err := openTBQL(en, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for cur.Next() {
	}
	if got := cur.Stats().DataQueries; got != nil {
		t.Fatalf("Stats rendered DataQueries on the hot path: %v", got)
	}

	rendered := cur.DataQueries()
	if len(rendered) != 2 {
		t.Fatalf("DataQueries = %v", rendered)
	}
	if cur.Stats().DataQueries == nil {
		t.Fatal("DataQueries not memoized into stats")
	}
	if !strings.Contains(rendered[1], "IN (") {
		t.Errorf("propagated constraint missing from rendered query: %s", rendered[1])
	}

	st := cur.Stats()
	if st.FetchCapped || st.RowsFetched == 0 {
		t.Fatalf("fixture hunt stats = %+v; want an uncapped hunt that fetched rows", st)
	}
	fetched := 0
	for _, text := range rendered {
		for sh := 0; sh < en.Rel.NumShards(); sh++ {
			rr, err := en.Rel.Shard(sh).Query(text)
			if err != nil {
				t.Fatalf("shard %d: %v\n%s", sh, err, text)
			}
			fetched += len(rr.Data)
		}
	}
	if fetched != st.RowsFetched {
		t.Errorf("rendered queries fetch %d rows across shards, the hunt fetched %d", fetched, st.RowsFetched)
	}
}
