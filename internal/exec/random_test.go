package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/audit/gen"
)

// TestRandomQueriesExecute: randomly composed valid queries must execute
// without error on a loaded engine, in every optimization mode, and all
// modes must agree on the result rows.
func TestRandomQueriesExecute(t *testing.T) {
	base := leakageEngine(t, 1500)
	modes := []*Engine{
		base,
		{Rel: base.Rel, Graph: base.Graph, DisablePropagation: true},
		{Rel: base.Rel, Graph: base.Graph, DisableScheduling: true, DisablePropagation: true},
		{Rel: base.Rel, Graph: base.Graph, DisableCostOptimizer: true},
	}

	rng := rand.New(rand.NewSource(77))
	exes := []string{"/bin/tar", "/usr/bin/curl", "/bin/bash", "/usr/bin/chrome", "/usr/sbin/sshd"}
	files := []string{"/etc/passwd", "/tmp/upload.tar", "/var/log/syslog", "/etc/crontab"}
	fileOps := []string{"read", "write", "read || write"}

	for i := 0; i < 60; i++ {
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
		b.WriteString("return distinct " + strings.Join(ret, ", "))
		src := b.String()

		var counts []int
		for mi, en := range modes {
			res, err := runTBQL(en, src)
			if err != nil {
				t.Fatalf("case %d mode %d: %v\n%s", i, mi, err, src)
			}
			counts = append(counts, len(res.Rows))
		}
		if counts[0] != counts[1] || counts[1] != counts[2] {
			t.Fatalf("case %d: modes disagree %v\n%s", i, counts, src)
		}
	}
}

// TestStreamingJoinMatchesReference is the equivalence property test
// for the streaming hash-join executor: every randomly composed query —
// including temporal relations, attribute relations (literal and
// event-to-event), path patterns, and distinct/non-distinct projections
// — must produce the identical match count and sorted row set as the
// reference evaluator (reference_test.go), in every scheduling mode.
func TestStreamingJoinMatchesReference(t *testing.T) {
	base := leakageEngine(t, 1500)
	modes := []struct {
		name   string
		stream *Engine
	}{
		{"scheduled", &Engine{Rel: base.Rel, Graph: base.Graph}},
		{"textual-order", &Engine{Rel: base.Rel, Graph: base.Graph, DisableScheduling: true}},
		{"static-order", &Engine{Rel: base.Rel, Graph: base.Graph, DisableCostOptimizer: true}},
	}

	rng := rand.New(rand.NewSource(1234))
	exes := []string{"/bin/tar", "/usr/bin/curl", "/bin/bash", "/usr/bin/chrome", "/usr/sbin/sshd", "/usr/sbin/apache2"}
	files := []string{"/etc/passwd", "/tmp/upload.tar", "/var/log/syslog", "/etc/crontab", "/tmp/upload"}
	fileOps := []string{"read", "write", "read || write", "!read"}
	attrOps := []string{"=", "!=", "<", "<=", ">", ">="}
	evtAttrs := []string{"srcid", "dstid", "starttime", "amount", "id"}

	const cases = 120
	for i := 0; i < cases; i++ {
		nPat := 1 + rng.Intn(4)
		var b strings.Builder
		var names []string
		used := map[string]bool{}
		for j := 0; j < nPat; j++ {
			name := fmt.Sprintf("e%d", j+1)
			names = append(names, name)
			subjID := fmt.Sprintf("p%d", rng.Intn(3))
			objID := fmt.Sprintf("f%d", rng.Intn(3))
			used[subjID], used[objID] = true, true
			subjF, objF := "", ""
			if rng.Intn(2) == 0 {
				subjF = fmt.Sprintf(`["%%%s%%"]`, exes[rng.Intn(len(exes))])
			}
			if rng.Intn(2) == 0 {
				objF = fmt.Sprintf(`["%%%s%%"]`, files[rng.Intn(len(files))])
			}
			if rng.Intn(4) == 0 {
				fmt.Fprintf(&b, "proc %s%s ~>(1~%d)[read] file %s%s as %s\n",
					subjID, subjF, 2+rng.Intn(3), objID, objF, name)
			} else {
				fmt.Fprintf(&b, "proc %s%s %s file %s%s as %s\n",
					subjID, subjF, fileOps[rng.Intn(len(fileOps))], objID, objF, name)
			}
		}
		// With-clause: temporal and attribute relations.
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
			// Literal attribute relation.
			rels = append(rels, fmt.Sprintf("%s.%s %s %d",
				names[rng.Intn(nPat)], evtAttrs[rng.Intn(len(evtAttrs))],
				attrOps[rng.Intn(len(attrOps))], rng.Intn(5000)))
		}
		if nPat > 1 && rng.Intn(3) == 0 {
			// Event-to-event attribute relation.
			a, c := rng.Intn(nPat), rng.Intn(nPat)
			if a != c {
				rels = append(rels, fmt.Sprintf("%s.%s %s %s.%s",
					names[a], evtAttrs[rng.Intn(len(evtAttrs))],
					attrOps[rng.Intn(len(attrOps))],
					names[c], evtAttrs[rng.Intn(len(evtAttrs))]))
			}
		}
		if len(rels) > 0 {
			b.WriteString("with " + strings.Join(rels, ", ") + "\n")
		}
		var ret []string
		for _, id := range []string{"p0", "p1", "p2", "f0", "f1", "f2"} {
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

		ref, err := referenceRun(base, src)
		if err != nil {
			t.Fatalf("case %d reference: %v\n%s", i, err, src)
		}
		want := sortedRows(ref.Rows)
		for _, mode := range modes {
			sres, err := runTBQL(mode.stream, src)
			if err != nil {
				t.Fatalf("case %d %s streaming: %v\n%s", i, mode.name, err, src)
			}
			if len(sres.Matches) != len(ref.Matches) {
				t.Fatalf("case %d %s: %d streaming matches, %d reference\n%s",
					i, mode.name, len(sres.Matches), len(ref.Matches), src)
			}
			got := sortedRows(sres.Rows)
			if len(got) != len(want) {
				t.Fatalf("case %d %s: %d streaming rows, %d reference\n%s",
					i, mode.name, len(got), len(want), src)
			}
			for r := range got {
				if got[r] != want[r] {
					t.Fatalf("case %d %s row %d: streaming %q, reference %q\n%s",
						i, mode.name, r, got[r], want[r], src)
				}
			}
		}
	}
}

func sortedRows(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "\x00")
	}
	sort.Strings(out)
	return out
}

// canonicalMatches serializes a result's match set order-independently:
// each match becomes its sorted entity and event bindings, and the
// whole set is sorted.
func canonicalMatches(matches []Match) []string {
	out := make([]string, len(matches))
	for i, m := range matches {
		var parts []string
		for id, ent := range m.Entities {
			parts = append(parts, fmt.Sprintf("%s=%d", id, ent))
		}
		for name, ev := range m.Events {
			parts = append(parts, fmt.Sprintf("%s#%d", name, ev.EventID))
		}
		sort.Strings(parts)
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// TestShardEquivalence is the shard-equivalence property test: every
// randomly composed query — including host-filtered, host-contradictory,
// temporal/attribute-related, path, and distinct variants — must yield
// the identical match set and projected row set on a 1-shard and a
// 4-shard System over the same multi-host audit data, in both
// scheduling modes. It is the executable form of the sharding
// argument: events live in exactly one shard, entities are broadcast,
// so the per-shard union of every data query equals the single-store
// result.
func TestShardEquivalence(t *testing.T) {
	hosts := []string{"host1", "host2", "host3"}
	cfgs := []gen.Config{
		{Seed: 42, Host: hosts[0], BenignEvents: 300,
			Attacks: []gen.Attack{{Kind: gen.AttackDataLeakage, At: 10 * time.Minute}}},
		{Seed: 43, Host: hosts[1], BenignEvents: 300},
		{Seed: 44, Host: hosts[2], BenignEvents: 300,
			Attacks: []gen.Attack{{Kind: gen.AttackDataLeakage, At: 20 * time.Minute}}},
	}
	one, _ := newShardedEngine(t, 1, cfgs...)
	const nShards = 4
	many, _ := newShardedEngine(t, nShards, cfgs...)
	if got := many.Rel.NumShards(); got != nShards {
		t.Fatalf("sharded engine has %d shards", got)
	}
	// The fixture must actually spread events across shards, or the test
	// degenerates to the 1-shard case.
	nonEmpty := 0
	for _, n := range many.Rel.EventRows() {
		if n > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Fatalf("fixture loads only %d shard(s); pick different hosts", nonEmpty)
	}

	modes := []struct {
		name      string
		one, many *Engine
	}{
		{
			"scheduled",
			&Engine{Rel: one.Rel, Graph: one.Graph},
			&Engine{Rel: many.Rel, Graph: many.Graph},
		},
		{
			"textual-order",
			&Engine{Rel: one.Rel, Graph: one.Graph, DisableScheduling: true},
			&Engine{Rel: many.Rel, Graph: many.Graph, DisableScheduling: true},
		},
		{
			"static-order",
			&Engine{Rel: one.Rel, Graph: one.Graph, DisableCostOptimizer: true},
			&Engine{Rel: many.Rel, Graph: many.Graph, DisableCostOptimizer: true},
		},
	}

	rng := rand.New(rand.NewSource(2026))
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
			// Subject filters mix exe LIKEs with host constants so shard
			// pruning (single host, host disjunction, contradiction) is
			// exercised alongside unpruned fan-out.
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
				// Occasionally contradictory with a subject host filter.
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

		for _, mode := range modes {
			ores, err := runTBQL(mode.one, src)
			if err != nil {
				t.Fatalf("case %d %s 1-shard: %v\n%s", i, mode.name, err, src)
			}
			mres, err := runTBQL(mode.many, src)
			if err != nil {
				t.Fatalf("case %d %s %d-shard: %v\n%s", i, mode.name, nShards, err, src)
			}
			om, mm := canonicalMatches(ores.Matches), canonicalMatches(mres.Matches)
			if len(om) != len(mm) {
				t.Fatalf("case %d %s: %d matches on 1 shard, %d on %d shards\n%s",
					i, mode.name, len(om), len(mm), nShards, src)
			}
			for k := range om {
				if om[k] != mm[k] {
					t.Fatalf("case %d %s match %d: 1-shard %q, sharded %q\n%s",
						i, mode.name, k, om[k], mm[k], src)
				}
			}
			got, want := sortedRows(mres.Rows), sortedRows(ores.Rows)
			if len(got) != len(want) {
				t.Fatalf("case %d %s: %d sharded rows, %d 1-shard\n%s",
					i, mode.name, len(got), len(want), src)
			}
			for r := range got {
				if got[r] != want[r] {
					t.Fatalf("case %d %s row %d: sharded %q, 1-shard %q\n%s",
						i, mode.name, r, got[r], want[r], src)
				}
			}
		}
	}
}

// TestShardPruning: a host-constant filter must prune the fan-out to
// one shard, and a host-contradictory pattern must short-circuit
// without executing anywhere.
func TestShardPruning(t *testing.T) {
	const nShards = 4
	en, _ := newShardedEngine(t, nShards,
		gen.Config{Seed: 42, Host: "host1", BenignEvents: 300,
			Attacks: []gen.Attack{{Kind: gen.AttackDataLeakage, At: 10 * time.Minute}}},
		gen.Config{Seed: 43, Host: "host2", BenignEvents: 300},
	)

	// Unpruned: one fetch per shard.
	res, err := runTBQL(en, "proc p read file f as e1\nreturn p, f")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ShardFetches != nShards {
		t.Errorf("unpruned hunt ran %d shard fetches, want %d", res.Stats.ShardFetches, nShards)
	}

	// Host-pinned: exactly one shard fetch, same rows as the unpruned
	// host filter evaluated everywhere.
	res, err = runTBQL(en, `proc p[host = "host1" && "%/bin/tar%"] read file f as e1`+"\nreturn p, f")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ShardFetches != 1 {
		t.Errorf("host-pinned hunt ran %d shard fetches, want 1", res.Stats.ShardFetches)
	}
	if len(res.Rows) == 0 {
		t.Error("host-pinned hunt found nothing; fixture broken")
	}

	// Contradictory hosts: short-circuit with no fetches at all.
	res, err = runTBQL(en, `proc p[host = "host1"] read file f[host = "host2"] as e1`+"\nreturn p, f")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.ShortCircuit {
		t.Error("contradictory host constraints should short-circuit")
	}
	if res.Stats.ShardFetches != 0 || len(res.Stats.DataQueries) != 0 {
		t.Errorf("contradictory hunt executed %d fetches, queries %v",
			res.Stats.ShardFetches, res.Stats.DataQueries)
	}
	if len(res.Rows) != 0 {
		t.Errorf("contradictory hunt returned rows: %v", res.Rows)
	}
}

// TestPropagationCap: oversized candidate sets must not be propagated,
// and execution must stay correct.
func TestPropagationCap(t *testing.T) {
	en := leakageEngine(t, 2000)
	en.MaxPropagatedIDs = 1 // nothing qualifies beyond single-candidate sets
	res, err := runTBQL(en, fig2TBQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("capped propagation broke correctness: %d rows", len(res.Rows))
	}
}

// TestNegatedOps: !read on a narrow file set.
func TestNegatedOps(t *testing.T) {
	en := leakageEngine(t, 0)
	res, err := runTBQL(en, `proc p["%/bin/tar%"] !read file f as e1
return distinct f`)
	if err != nil {
		t.Fatal(err)
	}
	// tar's only non-read file op in the attack is the upload.tar write.
	if len(res.Rows) != 1 || res.Rows[0][0] != "/tmp/upload.tar" {
		t.Errorf("negated op rows = %v", res.Rows)
	}
}

// TestMultiOpDisjunctionPath: op disjunction on a path pattern's final
// hop.
func TestMultiOpDisjunctionPath(t *testing.T) {
	en := leakageEngine(t, 0)
	res, err := runTBQL(en, `proc p["%/usr/sbin/apache2%"] ~>(1~4)[read || write] file f["%upload%"] as e1
return distinct f`)
	if err != nil {
		t.Fatal(err)
	}
	// apache2 -> bash -> tar -> write upload.tar (3 hops, final write).
	if len(res.Rows) == 0 {
		t.Errorf("disjunction path found nothing")
	}
	if !strings.Contains(res.Stats.DataQueries[0], "OR") {
		t.Errorf("op disjunction should appear in WHERE: %s", res.Stats.DataQueries[0])
	}
}
