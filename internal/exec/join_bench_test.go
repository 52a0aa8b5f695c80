package exec

import (
	"fmt"
	"testing"

	"repro/internal/audit"
	"repro/internal/relstore"
)

// fanoutTBQL joins two patterns on a shared process variable with a
// temporal constraint: the shape whose match count explodes with
// per-pattern fan-out.
const fanoutTBQL = `proc p["%worker%"] read file f1 as e1
proc p write file f2 as e2
with e1 before e2
return p, f1, f2`

// fanoutEngine builds a store with `procs` worker processes, each
// reading `filesPer` files and writing `filesPer` other files, of which
// `lateWrites` happen after the reads — so fanoutTBQL yields
// procs*filesPer*lateWrites matches while the join examines
// procs*filesPer*filesPer candidate pairs. A small lateWrites makes the
// workload join-bound: most candidates survive the entity probe and die
// on the temporal check, which is where the naive join pays its
// per-candidate map clones. No graph backend is needed (no path
// patterns).
func fanoutEngine(tb testing.TB, procs, filesPer, lateWrites int) *Engine {
	return fanoutShardedEngine(tb, 1, 1, procs, filesPer, lateWrites)
}

// fanoutShardedEngine is fanoutEngine across `hosts` hosts (workers
// p%hosts apart share a host) on a `shards`-shard store.
func fanoutShardedEngine(tb testing.TB, shards, hosts, procs, filesPer, lateWrites int) *Engine {
	tb.Helper()
	var entities []*audit.Entity
	var events []*audit.Event
	nextID := int64(1)
	newEntity := func(e audit.Entity, host string) int64 {
		e.ID = nextID
		e.Host = host
		nextID++
		entities = append(entities, &e)
		return e.ID
	}
	var ts int64
	addEvent := func(pid, fid int64, op audit.OpType, host string) {
		ts += 10
		events = append(events, &audit.Event{ID: nextID, SrcID: pid, DstID: fid,
			Op: op, StartTime: ts, EndTime: ts + 1, Amount: 64, Host: host})
		nextID++
	}
	for p := 0; p < procs; p++ {
		host := fmt.Sprintf("h%d", p%hosts)
		pid := newEntity(audit.Entity{Type: audit.EntityProcess,
			ExeName: fmt.Sprintf("/bin/worker%d", p), PID: 100 + p}, host)
		var reads, writes []int64
		for f := 0; f < filesPer; f++ {
			reads = append(reads, newEntity(audit.Entity{Type: audit.EntityFile,
				Path: fmt.Sprintf("/in/%d-%d", p, f)}, host))
			writes = append(writes, newEntity(audit.Entity{Type: audit.EntityFile,
				Path: fmt.Sprintf("/out/%d-%d", p, f)}, host))
		}
		// Writes before the reads fail "e1 before e2"; the lateWrites
		// after the reads pair with every read.
		for _, fid := range writes[:filesPer-lateWrites] {
			addEvent(pid, fid, audit.OpWrite, host)
		}
		for _, fid := range reads {
			addEvent(pid, fid, audit.OpRead, host)
		}
		for _, fid := range writes[filesPer-lateWrites:] {
			addEvent(pid, fid, audit.OpWrite, host)
		}
	}
	sh, err := relstore.NewSharded(shards)
	if err != nil {
		tb.Fatal(err)
	}
	if err := sh.Load(entities, events); err != nil {
		tb.Fatal(err)
	}
	// A plan cache is the production default (threatraptor.New wires
	// one), so the benchmarks measure the warm prepared pipeline.
	return &Engine{Rel: sh, Plans: NewPlanCache(DefaultPlanCacheSize)}
}

// BenchmarkJoinFanout compares the streaming hash join against the
// reference evaluator's nested-loop join on a high shared-entity
// fan-out workload: each worker's reads pair with all of its writes at
// the join's second level (filesPer² candidate pairs per worker), and
// the temporal relation accepts only the pairs involving the final
// write. The streaming mode drains a cursor — the production /hunt path
// — and probes a hash index, mutating slot arrays in place; the naive
// mode runs the reference (reference_test.go), which clones binding
// maps per candidate. The acceptance bar for the streaming executor is
// ≥5× fewer allocs/op.
func BenchmarkJoinFanout(b *testing.B) {
	for _, mode := range []string{"streaming", "naive"} {
		b.Run(mode, func(b *testing.B) {
			en := fanoutEngine(b, 8, 48, 1) // 8*48*48 pairs, 8*48 matches
			want := 8 * 48
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows := 0
				if mode == "naive" {
					res, err := referenceRun(en, fanoutTBQL)
					if err != nil {
						b.Fatal(err)
					}
					rows = len(res.Rows)
				} else {
					cur, err := openTBQL(en, fanoutTBQL, 0)
					if err != nil {
						b.Fatal(err)
					}
					for cur.Next() {
						rows++
					}
					cur.Close()
				}
				if rows != want {
					b.Fatalf("rows = %d, want %d", rows, want)
				}
			}
		})
	}
}

// BenchmarkJoinFanoutFirstRow isolates the lazy join: one row off a
// cursor versus materializing the whole fan-out.
func BenchmarkJoinFanoutFirstRow(b *testing.B) {
	en := fanoutEngine(b, 8, 48, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur, err := openTBQL(en, fanoutTBQL, 0)
		if err != nil {
			b.Fatal(err)
		}
		if !cur.Next() {
			b.Fatal("no rows")
		}
		cur.Close()
	}
}

// BenchmarkHuntFirstPage measures time-to-first-row on a large store:
// the first page of a hunt with ~10k matches must cost a small fraction
// of a full Execute, because the cursor only does page-sized join work.
func BenchmarkHuntFirstPage(b *testing.B) {
	en := fanoutEngine(b, 10, 32, 32) // 10*32*32 = 10240 matches
	const pageSize = 100

	b.Run("first-page", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cur, err := openTBQL(en, fanoutTBQL, 0)
			if err != nil {
				b.Fatal(err)
			}
			rows := 0
			for rows < pageSize && cur.Next() {
				rows++
			}
			cur.Close()
			if rows != pageSize {
				b.Fatalf("page = %d rows", rows)
			}
		}
	})
	b.Run("full-execute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := runTBQL(en, fanoutTBQL)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 10*32*32 {
				b.Fatalf("rows = %d", len(res.Rows))
			}
		}
	})
}

// BenchmarkHuntFirstPageSharded is BenchmarkHuntFirstPage's sharded
// variant: the same ~10k-match workload spread over 8 hosts, hunted on
// a 1-shard versus an 8-shard store. The unpruned hunt pays the
// fan-out (8 shard fetches instead of 1, run through the worker pool);
// the host-pinned hunt is pruned to a single shard, so its fetch phase
// touches 1/8th of the data.
func BenchmarkHuntFirstPageSharded(b *testing.B) {
	const pageSize = 100
	// 8 workers spread over 8 hosts; worker p lives on host h<p>.
	hostTBQL := `proc p[host = "h3" && "%worker%"] read file f1 as e1
proc p write file f2 as e2
with e1 before e2
return p, f1, f2`
	for _, cfg := range []struct {
		name   string
		shards int
		query  string
		pinned bool
	}{
		{"fanout-1shard", 1, fanoutTBQL, false},
		{"fanout-8shard", 8, fanoutTBQL, false},
		{"hostpinned-1shard", 1, hostTBQL, true},
		{"hostpinned-8shard", 8, hostTBQL, true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			en := fanoutShardedEngine(b, cfg.shards, 8, 8, 36, 36) // 8*36*36 = 10368 matches
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cur, err := openTBQL(en, cfg.query, 0)
				if err != nil {
					b.Fatal(err)
				}
				rows := 0
				for rows < pageSize && cur.Next() {
					rows++
				}
				cur.Close()
				if rows != pageSize {
					b.Fatalf("page = %d rows", rows)
				}
			}
		})
	}
}
