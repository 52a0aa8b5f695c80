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

// wideTBQL matches many rows, so a cursor over it can be held open
// mid-stream with matches still pending.
const wideTBQL = `proc p read || write file f as e1
return p, f`

// pathTBQL exercises the graph backend.
const pathTBQL = `proc p ~>(1~3)[read] file f as e1
return p, f`

// writeProbe writes an event row and a probe node into one shard of
// both stores and reports on done. Under the epoch design no cursor
// ever blocks it.
func writeProbe(en *Engine, shard int, id int64, done chan<- error) {
	ev := &audit.Event{ID: id, SrcID: 1, DstID: 2, Op: audit.OpRead,
		StartTime: 1, EndTime: 2, Amount: 1, Host: "h"}
	if err := en.Rel.Shard(shard).Table(relstore.EventTable).Insert(relstore.EventRow(ev)); err != nil {
		done <- err
		return
	}
	if en.Graph != nil {
		_, err := en.Graph.Shard(shard).AddNode(graphstore.Node{Label: "probe"})
		done <- err
		return
	}
	done <- nil
}

// expectPrompt asserts the writer completes promptly: open cursors pin
// epochs, not locks, so writers never queue behind them.
func expectPrompt(t *testing.T, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("writer failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writer blocked: a cursor snapshot is holding store locks")
	}
}

// drain reads every remaining row of a cursor.
func drain(t *testing.T, cur *Cursor) [][]string {
	t.Helper()
	var rows [][]string
	for cur.Next() {
		rows = append(rows, cur.Row())
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestCursorDoesNotBlockWriters is the inversion of the old lock-leak
// regression suite: an open cursor — even one abandoned mid-stream —
// pins an epoch, not locks, so writers to every store complete promptly
// while it is open, and Close stays idempotent.
func TestCursorDoesNotBlockWriters(t *testing.T) {
	en := leakageEngine(t, 300)
	cur, err := openTBQL(en, wideTBQL, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next() {
		t.Fatal("no rows; fixture broken")
	}

	done := make(chan error, 1)
	go writeProbe(en, 0, 1<<40, done)
	expectPrompt(t, done)

	// Same for a path-pattern cursor holding a graph mark.
	pcur, err := openTBQL(en, pathTBQL, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !pcur.Next() {
		t.Fatal("no path rows; fixture broken")
	}
	graphDone := make(chan error, 1)
	go func() {
		_, err := en.Graph.Shard(0).AddNode(graphstore.Node{Label: "probe2"})
		graphDone <- err
	}()
	expectPrompt(t, graphDone)
	pcur.Close()

	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestCursorEpochIsolation: rows committed after a cursor's snapshot
// was captured must be invisible to every page the cursor produces —
// no skips, no repeats, no phantom rows — while a cursor created after
// the commit sees them. This is the paging-under-ingest bug the epoch
// design removes.
func TestCursorEpochIsolation(t *testing.T) {
	en := leakageEngine(t, 300)
	want, err := runTBQL(en, wideTBQL)
	if err != nil {
		t.Fatal(err)
	}

	cur, err := openTBQL(en, wideTBQL, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if !cur.Next() {
		t.Fatal("no rows; fixture broken")
	}
	got := [][]string{cur.Row()}

	// Commit events that MATCH the open query: duplicates of an already
	// matching event under fresh IDs, straight into the store the way a
	// post-snapshot ingest batch would land.
	src := en.Rel.Shard(0)
	rr, err := src.Query(`SELECT e.id, e.srcid, e.dstid, e.starttime, e.endtime, e.amount, e.host FROM events e JOIN entities s ON e.srcid = s.id JOIN entities o ON e.dstid = o.id WHERE s.type = 'process' AND o.type = 'file' AND e.optype = 'read'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Data) == 0 {
		t.Fatal("no matching event to duplicate")
	}
	tmpl := rr.Data[0]
	for i := int64(0); i < 10; i++ {
		ev := &audit.Event{ID: 1<<40 + i, SrcID: tmpl[1].Int, DstID: tmpl[2].Int,
			Op: audit.OpRead, StartTime: tmpl[3].Int, EndTime: tmpl[4].Int,
			Amount: tmpl[5].Int, Host: tmpl[6].Str}
		if err := src.Table(relstore.EventTable).Insert(relstore.EventRow(ev)); err != nil {
			t.Fatal(err)
		}
	}

	// The pinned cursor pages exactly the epoch-time match set.
	got = append(got, drain(t, cur)...)
	if len(got) != len(want.Rows) {
		t.Fatalf("pinned cursor saw %d rows, epoch match set has %d", len(got), len(want.Rows))
	}
	for i := range got {
		if strings.Join(got[i], "\x00") != strings.Join(want.Rows[i], "\x00") {
			t.Fatalf("row %d: pinned cursor %v != epoch row %v", i, got[i], want.Rows[i])
		}
	}

	// A cursor created after the commit sees the new rows.
	after, err := runTBQL(en, wideTBQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Rows) != len(want.Rows)+10 {
		t.Fatalf("post-commit hunt saw %d rows, want %d", len(after.Rows), len(want.Rows)+10)
	}
}

// TestCursorEpochIsolationGraph: the same isolation for a path-pattern
// cursor — graph edges committed after its mark stay invisible.
func TestCursorEpochIsolationGraph(t *testing.T) {
	en := leakageEngine(t, 300)
	want, err := runTBQL(en, pathTBQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("no path rows; fixture broken")
	}

	cur, err := openTBQL(en, pathTBQL, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()

	// Duplicate an existing read edge under a fresh ID: one more 1-hop
	// path for any post-mark reader.
	g := en.Graph.Shard(0)
	gr, err := g.Query(`MATCH (a:Process)-[e:EVENT {optype: 'read'}]->(b:File) RETURN a, b, e.starttime, e.endtime, e.amount LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(gr.Data) == 0 {
		t.Fatal("no read edge to duplicate")
	}
	d := gr.Data[0]
	if _, err := g.AddEdge(graphstore.Edge{From: d[0].Int, To: d[1].Int, Label: "event",
		Props: map[string]graphstore.Value{
			"eventid":   graphstore.IntValue(1 << 40),
			"optype":    graphstore.TextValue("read"),
			"starttime": graphstore.IntValue(d[2].Int),
			"endtime":   graphstore.IntValue(d[3].Int),
			"amount":    graphstore.IntValue(d[4].Int),
			"host":      graphstore.TextValue("h"),
		}}); err != nil {
		t.Fatal(err)
	}

	got := drain(t, cur)
	if len(got) != len(want.Rows) {
		t.Fatalf("pinned path cursor saw %d rows, epoch match set has %d", len(got), len(want.Rows))
	}

	after, err := runTBQL(en, pathTBQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Rows) <= len(want.Rows) {
		t.Fatalf("post-commit path hunt saw %d rows, want > %d", len(after.Rows), len(want.Rows))
	}
}

// TestCursorShortCircuitNeedsNoSnapshot: a hunt whose fetch phase
// short-circuits returns an empty cursor with its snapshot references
// already dropped.
func TestCursorShortCircuitNeedsNoSnapshot(t *testing.T) {
	en := leakageEngine(t, 300)
	cur, err := openTBQL(en, `proc p["%no-such-binary%"] read file f as e1
return p, f`, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if !cur.Stats().ShortCircuit {
		t.Fatal("expected a short-circuit hunt")
	}
	if cur.view != nil {
		t.Fatal("short-circuit cursor kept its snapshot")
	}
	if cur.Next() {
		t.Fatal("short-circuit cursor produced a row")
	}
}

// shardedStreamEngine loads two hosts that land on distinct shards of a
// 4-shard store (and reports which shards those are).
func shardedStreamEngine(t *testing.T) (en *Engine, shardA, shardB int) {
	t.Helper()
	en, _ = newShardedEngine(t, 4,
		gen.Config{Seed: 42, Host: "host1", BenignEvents: 200,
			Attacks: []gen.Attack{{Kind: gen.AttackDataLeakage, At: 10 * time.Minute}}},
		gen.Config{Seed: 43, Host: "host2", BenignEvents: 200},
	)
	shardA = en.Rel.ShardFor("host1")
	shardB = en.Rel.ShardFor("host2")
	if shardA == shardB {
		t.Fatalf("host1 and host2 share shard %d; pick different hosts", shardA)
	}
	return en, shardA, shardB
}

// TestShardedCursorBlocksNoShard: a cursor over an unpruned hunt used
// to pin every shard's read locks; under the epoch design writers to
// every touched shard proceed while it is open — and the cursor's
// remaining pages still reflect only its own epoch.
func TestShardedCursorBlocksNoShard(t *testing.T) {
	en, shardA, shardB := shardedStreamEngine(t)
	want, err := runTBQL(en, wideTBQL)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := openTBQL(en, wideTBQL, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next() {
		t.Fatal("no rows; fixture broken")
	}

	doneA, doneB := make(chan error, 1), make(chan error, 1)
	go writeProbe(en, shardA, 1<<40, doneA)
	go writeProbe(en, shardB, 1<<40+1, doneB)
	expectPrompt(t, doneA)
	expectPrompt(t, doneB)

	got := [][]string{cur.Row()}
	got = append(got, drain(t, cur)...)
	if len(got) != len(want.Rows) {
		t.Fatalf("cursor saw %d rows after cross-shard writes, epoch match set has %d",
			len(got), len(want.Rows))
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedCursorHostPruned: a host-pinned cursor snapshots only its
// host's shard (plus shard 0's entity table); writes to both its own
// and other shards proceed while it pages, and its pages stay pinned
// to its epoch.
func TestShardedCursorHostPruned(t *testing.T) {
	en, shardA, shardB := shardedStreamEngine(t)
	const prunedTBQL = `proc p[host = "host1"] read || write file f as e1
return p, f`
	want, err := runTBQL(en, prunedTBQL)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := openTBQL(en, prunedTBQL, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next() {
		t.Fatal("no rows; fixture broken")
	}

	// Neither the unpinned shard nor the cursor's own shard queues.
	otherDone := make(chan error, 1)
	go func() {
		ev := &audit.Event{ID: 1 << 41, SrcID: 1, DstID: 2, Op: audit.OpRead,
			StartTime: 1, EndTime: 2, Amount: 1, Host: "host2"}
		otherDone <- en.Rel.Shard(shardB).Table(relstore.EventTable).Insert(relstore.EventRow(ev))
	}()
	expectPrompt(t, otherDone)
	pinnedDone := make(chan error, 1)
	go writeProbe(en, shardA, 1<<40, pinnedDone)
	expectPrompt(t, pinnedDone)

	got := [][]string{cur.Row()}
	got = append(got, drain(t, cur)...)
	if len(got) != len(want.Rows) {
		t.Fatalf("pruned cursor saw %d rows, epoch match set has %d", len(got), len(want.Rows))
	}
	cur.Close()
}

// TestPropagationsSkippedCounted: capping the IN-list size must surface
// the dropped constraints in Stats.PropagationsSkipped instead of
// silently fetching unconstrained tables.
func TestPropagationsSkippedCounted(t *testing.T) {
	// 8 workers share the p variable, so the propagated candidate set
	// has 8 IDs: under a cap of 4 it must be dropped and counted.
	en := fanoutEngine(t, 8, 4, 4)
	full, err := runTBQL(en, fanoutTBQL)
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.PropagationsSkipped != 0 {
		t.Errorf("uncapped run skipped %d propagations", full.Stats.PropagationsSkipped)
	}
	if full.Stats.Propagations == 0 {
		t.Fatal("uncapped run should propagate the shared variable")
	}

	en.MaxPropagatedIDs = 4
	capped, err := runTBQL(en, fanoutTBQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped.Rows) != len(full.Rows) {
		t.Fatalf("capped run broke correctness: %d rows, want %d", len(capped.Rows), len(full.Rows))
	}
	if capped.Stats.PropagationsSkipped == 0 {
		t.Error("capped run should count skipped propagations")
	}
	if capped.Stats.Propagations >= full.Stats.Propagations {
		t.Errorf("capped run propagated %d, uncapped %d",
			capped.Stats.Propagations, full.Stats.Propagations)
	}
}

// TestExplainPropagated: Explain must name the entity variables each
// pattern shares with earlier scheduled patterns.
func TestExplainPropagated(t *testing.T) {
	en := leakageEngine(t, 100)
	parsed, err := tbql.Parse(fig2TBQL)
	if err != nil {
		t.Fatal(err)
	}
	eps, err := en.Explain(nil, parsed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(eps[0].Propagated) != 0 {
		t.Errorf("first pattern cannot receive propagation: %v", eps[0].Propagated)
	}
	var total int
	for _, ep := range eps[1:] {
		total += len(ep.Propagated)
	}
	// Every later Fig. 2 pattern chains to an earlier one through a
	// shared process or file variable.
	if total < len(eps)-1 {
		t.Errorf("expected a propagated variable per chained pattern, got %d across %v", total, eps)
	}

	en.DisablePropagation = true
	eps, err = en.Explain(nil, parsed, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range eps {
		if len(ep.Propagated) != 0 {
			t.Errorf("propagation disabled but %s lists %v", ep.Name, ep.Propagated)
		}
	}
}

// TestCursorLazyJoinWork: reading one row of a high-fanout hunt must do
// far less join work than draining it — the streaming executor's whole
// point.
func TestCursorLazyJoinWork(t *testing.T) {
	en := fanoutEngine(t, 8, 16, 16) // 8*16*16 = 2048 matches
	cur, err := openTBQL(en, fanoutTBQL, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next() {
		t.Fatal("no rows")
	}
	firstPage := cur.Stats().JoinCandidates
	cur.Close()

	res, err := runTBQL(en, fanoutTBQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8*16*16 {
		t.Fatalf("full drain rows = %d", len(res.Rows))
	}
	full := res.Stats.JoinCandidates
	if firstPage*10 > full {
		t.Errorf("first row explored %d candidates, full drain %d: join is not lazy",
			firstPage, full)
	}
}
