package threatraptor

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/wal"
)

// durableSystem builds a System on a WAL in dir.
func durableSystem(t *testing.T, dir string, cfg wal.Config, opts Options) (*System, *wal.Log) {
	t.Helper()
	log, err := wal.Open(dir, cfg)
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	opts.WAL = log
	sys, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return sys, log
}

// durabilityBatch builds a varied per-host batch: file reads/writes by
// two processes plus a network connection, so hunts exercise entity
// interning, multiple ops, and multi-pattern joins.
func durabilityBatch(host string, batch, events int) []Record {
	recs := make([]Record, 0, events+2)
	base := int64(batch * 1_000_000)
	exes := []string{"/bin/worker", "/usr/bin/curl"}
	for i := 0; i < events; i++ {
		op := audit.OpRead
		if i%3 == 0 {
			op = audit.OpWrite
		}
		recs = append(recs, Record{
			StartNS: base + int64(i)*10, EndNS: base + int64(i)*10 + 1,
			Host: host, PID: 100 + i%2, Exe: exes[i%2],
			Op: op, ObjType: audit.EntityFile,
			ObjSpec: fmt.Sprintf("/data/%s-%d", host, i%6), Amount: int64(32 + i),
		})
	}
	recs = append(recs, Record{
		StartNS: base + int64(events)*10, EndNS: base + int64(events)*10 + 1,
		Host: host, PID: 100, Exe: "/usr/bin/curl",
		Op: audit.OpSend, ObjType: audit.EntityNetConn,
		ObjSpec: fmt.Sprintf("10.0.0.%d:4000->203.0.113.9:443/tcp", batch%250+1), Amount: 512,
	})
	return recs
}

// randomHuntQueries composes n valid TBQL queries over the entities the
// durability batches create (the recovered-store equivalence suite).
func randomHuntQueries(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	exes := []string{"/bin/worker", "/usr/bin/curl"}
	files := []string{"/data/hostA-0", "/data/hostB-1", "/data/hostA-2", "/data/hostC-3"}
	fileOps := []string{"read", "write", "read || write"}
	hosts := []string{"hostA", "hostB", "hostC"}
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
			switch rng.Intn(3) {
			case 0:
				subjF = fmt.Sprintf(`[exename = "%s"]`, exes[rng.Intn(len(exes))])
			case 1:
				subjF = fmt.Sprintf(`[host = "%s"]`, hosts[rng.Intn(len(hosts))])
			}
			if rng.Intn(2) == 0 {
				objF = fmt.Sprintf(`["%%%s%%"]`, files[rng.Intn(len(files))][:7])
			}
			if rng.Intn(6) == 0 {
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
		out = append(out, b.String())
	}
	return out
}

func sortedRows(res *HuntResult) []string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(rows)
	return rows
}

// assertHuntEquivalence runs the query suite against both systems and
// requires identical sorted match sets.
func assertHuntEquivalence(t *testing.T, label string, want, got *System, queries []string) {
	t.Helper()
	for i, src := range queries {
		wres, err := want.Hunt(src)
		if err != nil {
			t.Fatalf("%s query %d on reference: %v\n%s", label, i, err, src)
		}
		gres, err := got.Hunt(src)
		if err != nil {
			t.Fatalf("%s query %d on recovered: %v\n%s", label, i, err, src)
		}
		w, g := sortedRows(wres), sortedRows(gres)
		if len(w) != len(g) {
			t.Fatalf("%s query %d: %d rows vs %d recovered\n%s", label, i, len(w), len(g), src)
		}
		for j := range w {
			if w[j] != g[j] {
				t.Fatalf("%s query %d row %d: %q vs %q\n%s", label, i, j, w[j], g[j], src)
			}
		}
	}
}

// TestRecoveredHuntEquivalence is the acceptance suite: ingest across
// hosts (with a mid-stream segment flush so recovery exercises both the
// segment and WAL-tail paths), restart cleanly, and require 120 random
// hunts to return identical match sets on the recovered store. The
// 4-shard variant replays per-shard segment files concurrently at
// restart, so it additionally proves the parallel loader reassembles
// the same store — including the commit-ordered event IDs the restored
// parser re-sorts to.
func TestRecoveredHuntEquivalence(t *testing.T) {
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			cfg := wal.Config{Shards: shards}
			sys, log := durableSystem(t, dir, cfg, Options{Shards: shards})
			for b := 0; b < 4; b++ {
				for _, host := range []string{"hostA", "hostB", "hostC"} {
					if _, err := sys.IngestRecords(durabilityBatch(host, b, 40)); err != nil {
						t.Fatalf("ingest %s/%d: %v", host, b, err)
					}
				}
				if b == 1 {
					// Half the data goes through a segment set, half stays WAL tail.
					if err := log.FlushSegments(); err != nil {
						t.Fatalf("FlushSegments: %v", err)
					}
				}
			}
			if err := log.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			recovered, log2 := durableSystem(t, dir, cfg, Options{Shards: shards})
			defer log2.Close()
			rec := recovered.Recovery()
			if !rec.Clean || rec.Epoch != uint64(sys.Epoch()) {
				t.Fatalf("recovery info %+v, want clean at epoch %d", rec, sys.Epoch())
			}
			if recovered.NumEvents() != sys.NumEvents() || recovered.NumEntities() != sys.NumEntities() {
				t.Fatalf("recovered %d/%d events/entities, want %d/%d",
					recovered.NumEvents(), recovered.NumEntities(), sys.NumEvents(), sys.NumEntities())
			}
			// Concurrent per-shard replay restores events in nondeterministic
			// order; SortRestoredEvents must have put the parser's slice back
			// in ID (= commit) order.
			evs := recovered.parser.Events()
			for i := 1; i < len(evs); i++ {
				if evs[i-1].ID >= evs[i].ID {
					t.Fatalf("restored events out of ID order at %d: %d >= %d", i, evs[i-1].ID, evs[i].ID)
				}
			}
			assertHuntEquivalence(t, "clean-restart", sys, recovered, randomHuntQueries(120, 42))
		})
	}
}

// TestCrashRecoveryProperty is the kill-at-random-offset property test:
// truncate the WAL at a random byte (simulating kill -9 mid-write) and
// require the recovered store to equal a fresh store built from exactly
// the recovered batch prefix — batch-atomic recovery, hunts included.
func TestCrashRecoveryProperty(t *testing.T) {
	const batches = 6
	queries := randomHuntQueries(20, 99)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 6; trial++ {
		dir := t.TempDir()
		sys, _ := durableSystem(t, dir, wal.Config{Fsync: wal.Policy{Mode: wal.FsyncNever}}, Options{})
		for b := 0; b < batches; b++ {
			if _, err := sys.IngestRecords(durabilityBatch("hostA", b, 25)); err != nil {
				t.Fatal(err)
			}
		}
		// Kill: no Close, tear the log at a random byte.
		walFile := filepath.Join(dir, "wal-0.log")
		st, err := os.Stat(walFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(walFile, rng.Int63n(st.Size()+1)); err != nil {
			t.Fatal(err)
		}

		recovered, log2 := durableSystem(t, dir, wal.Config{}, Options{})
		rec := recovered.Recovery()
		if rec.Clean {
			t.Fatal("crash must not recover clean")
		}
		// Each batch was one commit, so the recovered epoch counts whole
		// batches: rebuild a reference store from exactly that prefix.
		if rec.Epoch > batches {
			t.Fatalf("trial %d: recovered epoch %d beyond %d batches", trial, rec.Epoch, batches)
		}
		ref, err := New(Options{})
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < int(rec.Epoch); b++ {
			if _, err := ref.IngestRecords(durabilityBatch("hostA", b, 25)); err != nil {
				t.Fatal(err)
			}
		}
		if recovered.NumEvents() != ref.NumEvents() || recovered.NumEntities() != ref.NumEntities() {
			t.Fatalf("trial %d: recovered %d/%d events/entities, prefix store has %d/%d",
				trial, recovered.NumEvents(), recovered.NumEntities(), ref.NumEvents(), ref.NumEntities())
		}
		assertHuntEquivalence(t, fmt.Sprintf("crash-trial-%d", trial), ref, recovered, queries)
		log2.Close()
	}
}

// TestAckedBatchSurvivesFsyncAlways: with -fsync always, a batch whose
// ingest returned is durable even if the process dies without Close.
func TestAckedBatchSurvivesFsyncAlways(t *testing.T) {
	dir := t.TempDir()
	sys, _ := durableSystem(t, dir, wal.Config{Fsync: wal.Policy{Mode: wal.FsyncAlways}}, Options{})
	for b := 0; b < 3; b++ {
		if _, err := sys.IngestRecords(durabilityBatch("hostA", b, 10)); err != nil {
			t.Fatal(err)
		}
	}
	// No Close — the acks already guaranteed durability.
	recovered, log2 := durableSystem(t, dir, wal.Config{}, Options{})
	defer log2.Close()
	if recovered.NumEvents() != sys.NumEvents() {
		t.Fatalf("acked events lost: recovered %d, want %d", recovered.NumEvents(), sys.NumEvents())
	}
	if recovered.Recovery().Epoch != uint64(sys.Epoch()) {
		t.Fatalf("recovered epoch %d, want %d", recovered.Recovery().Epoch, sys.Epoch())
	}
}

// TestDegradedNoPartialCommit: a disk fault during the WAL append must
// refuse the batch with ErrDegraded and leave zero partial state — no
// new entities, events, or epoch — while hunts keep working.
func TestDegradedNoPartialCommit(t *testing.T) {
	dir := t.TempDir()
	ffs := wal.NewFaultFS(nil)
	sys, _ := durableSystem(t, dir, wal.Config{FS: ffs, Fsync: wal.Policy{Mode: wal.FsyncNever}}, Options{})
	if _, err := sys.IngestRecords(durabilityBatch("hostA", 0, 10)); err != nil {
		t.Fatal(err)
	}
	events, entities := sys.NumEvents(), sys.NumEntities()

	ffs.FailWritesAfter(0, true)
	_, err := sys.IngestRecords(durabilityBatch("hostB", 1, 10))
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("want ErrDegraded, got %v", err)
	}
	if sys.NumEvents() != events || sys.NumEntities() != entities {
		t.Fatalf("partial commit leaked: %d/%d events/entities, want %d/%d",
			sys.NumEvents(), sys.NumEntities(), events, entities)
	}
	if reason, ok := sys.Degraded(); !ok || reason == "" {
		t.Fatal("system should report degraded")
	}
	// hostB interned nothing: a hunt for its events finds no rows.
	res, err := sys.Hunt("proc p[host = \"hostB\"] read file f as e1\nreturn distinct p, f")
	if err != nil {
		t.Fatalf("hunts must keep working while degraded: %v", err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("refused batch visible to hunts: %d rows", len(res.Rows))
	}
	// Degraded is sticky.
	ffs.FailWritesAfter(-1, false)
	if _, err := sys.IngestRecords(durabilityBatch("hostC", 2, 5)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded must be sticky, got %v", err)
	}
}

// TestChunkedIngest: a batch larger than IngestChunk splits into
// multiple commits (epochs, WAL records) while reporting aggregate
// stats, and every record lands exactly once.
func TestChunkedIngest(t *testing.T) {
	dir := t.TempDir()
	sys, log := durableSystem(t, dir, wal.Config{}, Options{IngestChunk: 10})
	defer log.Close()
	recs := durabilityBatch("hostA", 0, 33) // 34 records -> 4 chunks
	st, err := sys.IngestRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	if st.EventsIn != len(recs) || st.EventsStored != len(recs) {
		t.Fatalf("stats %+v, want %d events through", st, len(recs))
	}
	if got := uint64(sys.Epoch()); got != 4 {
		t.Fatalf("epoch %d, want 4 chunked commits", got)
	}
	if ws := log.Stats(); ws.Records != 4 {
		t.Fatalf("%d WAL records, want 4", ws.Records)
	}
	if sys.NumEvents() != len(recs) {
		t.Fatalf("stored %d events, want %d", sys.NumEvents(), len(recs))
	}
	// Chunk boundaries must not break interning: the same entities
	// referenced across chunks resolve to one ID each.
	unchunked, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := unchunked.IngestRecords(recs); err != nil {
		t.Fatal(err)
	}
	if sys.NumEntities() != unchunked.NumEntities() {
		t.Fatalf("chunked interned %d entities, unchunked %d", sys.NumEntities(), unchunked.NumEntities())
	}
}

// TestRecoveryWithCPR: with CPR on, the WAL stores the post-reduction
// events (the stores' ground truth), so a recovered store matches the
// original stores exactly.
func TestRecoveryWithCPR(t *testing.T) {
	dir := t.TempDir()
	sys, log := durableSystem(t, dir, wal.Config{}, Options{CPR: true})
	for b := 0; b < 3; b++ {
		if _, err := sys.IngestRecords(durabilityBatch("hostA", b, 30)); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, log2 := durableSystem(t, dir, wal.Config{}, Options{CPR: true})
	defer log2.Close()
	if recovered.NumEvents() != sys.NumEvents() {
		t.Fatalf("recovered %d events, want %d (post-CPR)", recovered.NumEvents(), sys.NumEvents())
	}
	assertHuntEquivalence(t, "cpr-restart", sys, recovered, randomHuntQueries(30, 7))
}

// TestRecoveryAfterRetentionCompaction: events older than the retention
// window age out of the merged segments, and a restarted store no
// longer holds them — bounded memory across restarts.
func TestRecoveryAfterRetentionCompaction(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	cfg := wal.Config{Retention: time.Hour, Now: func() time.Time { return now }}
	sys, log := durableSystem(t, dir, cfg, Options{})
	oldNS := now.Add(-2 * time.Hour).UnixNano()
	freshNS := now.UnixNano()
	mk := func(ns int64, host string) []Record {
		return []Record{{
			StartNS: ns, EndNS: ns + 1, Host: host, PID: 100, Exe: "/bin/worker",
			Op: audit.OpRead, ObjType: audit.EntityFile, ObjSpec: "/data/x", Amount: 1,
		}}
	}
	if _, err := sys.IngestRecords(mk(oldNS, "hostA")); err != nil {
		t.Fatal(err)
	}
	if err := log.FlushSegments(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.IngestRecords(mk(freshNS, "hostA")); err != nil {
		t.Fatal(err)
	}
	if err := log.FlushSegments(); err != nil { // second set triggers compaction
		t.Fatal(err)
	}
	if ws := log.Stats(); ws.Compactions != 1 {
		t.Fatalf("want 1 compaction, got %+v", ws)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if sys.NumEvents() != 2 {
		t.Fatalf("live store should still hold both events, has %d", sys.NumEvents())
	}

	recovered, log2 := durableSystem(t, dir, cfg, Options{})
	defer log2.Close()
	// In-memory age-out takes effect at restart: only the fresh event.
	if recovered.NumEvents() != 1 {
		t.Fatalf("recovered %d events, want 1 after retention", recovered.NumEvents())
	}
}

// TestFacadeDurabilityAccessors pins the nil-safe WAL accessors on both
// a memory-only and a durable System, and the analyzed-query hunt
// entrypoints the daemon's query cache uses.
func TestFacadeDurabilityAccessors(t *testing.T) {
	mem, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := mem.WALStats(); st != (wal.Stats{}) {
		t.Fatalf("memory-only WALStats = %+v, want zero", st)
	}
	if rec := mem.Recovery(); rec != (wal.RecoveryInfo{}) {
		t.Fatalf("memory-only Recovery = %+v, want zero", rec)
	}
	if reason, ok := mem.Degraded(); ok || reason != "" {
		t.Fatalf("memory-only Degraded = %q/%v", reason, ok)
	}

	sys, log := durableSystem(t, t.TempDir(), wal.Config{Fsync: wal.Policy{Mode: wal.FsyncNever}}, Options{})
	defer log.Close()
	if _, err := sys.IngestRecords(durabilityBatch("hostA", 1, 12)); err != nil {
		t.Fatal(err)
	}
	if st := sys.WALStats(); st.Records != 1 {
		t.Fatalf("WALStats.Records = %d, want 1", st.Records)
	}

	q, err := sys.ParseQuery("proc p read file f as e1\nreturn distinct p, f")
	if err != nil {
		t.Fatal(err)
	}
	cur, err := sys.HuntQueryCursor(q)
	if err != nil {
		t.Fatal(err)
	}
	full := drainCursor(t, cur)
	// The same analyzed query re-executes (the query-cache path), here
	// with a row bound.
	curLim, err := sys.HuntQueryCursorCtx(nil, q, len(full)+1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lim := drainCursor(t, curLim); len(lim) != len(full) {
		t.Fatalf("limited re-execution: %d rows vs %d", len(lim), len(full))
	}
	if _, _, size := sys.PlanCacheStats(); size == 0 {
		t.Fatal("plan cache empty after two executions")
	}
}

// drainCursor reads a cursor to exhaustion, returning its rows joined
// per row for comparison.
func drainCursor(t *testing.T, cur *Cursor) []string {
	t.Helper()
	defer cur.Close()
	var rows []string
	for cur.Next() {
		rows = append(rows, strings.Join(cur.Row(), "\x1f"))
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("cursor: %v", err)
	}
	sort.Strings(rows)
	return rows
}
