package threatraptor

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/audit/gen"
)

// crackSystem builds a system with the password-crack attack already
// ingested, so hunts have a stable hit while more data streams in.
func crackSystem(t testing.TB, benign int) *System {
	t.Helper()
	sys, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := gen.Generate(gen.Config{
		Seed:         21,
		BenignEvents: benign,
		Attacks:      []gen.Attack{{Kind: gen.AttackPasswordCrack, At: 10 * time.Minute}},
	})
	if _, err := sys.IngestRecords(w.Records); err != nil {
		t.Fatal(err)
	}
	return sys
}

const concurrentCrackTBQL = `proc p["%cracker%"] read file f["%/etc/shadow%"] as e1
return distinct p, f`

// concurrentPathTBQL exercises the graph backend alongside the
// relational one during the interleaved run.
const concurrentPathTBQL = `proc p["%cracker%"] ~>(1~3)[read] file f["%/etc/shadow%"] as e1
return distinct p, f`

// TestConcurrentHuntDuringIngest is the facade race suite: goroutines
// ingest fresh batches while others Hunt (both backends), stream
// results through cursors, Explain, Investigate, and read counters.
// Run with -race; the assertions only require that pre-ingested attack
// data stays visible and nothing errors.
func TestConcurrentHuntDuringIngest(t *testing.T) {
	sys := crackSystem(t, 2000)

	poi := sys.FindEntities("path", "/etc/shadow")
	if len(poi) == 0 {
		t.Fatal("point-of-interest entity missing")
	}
	poiID := poi[0].ID

	const (
		ingestBatches = 8
		huntsPerActor = 10
	)
	var wg sync.WaitGroup
	errs := make(chan error, 128)

	// One ingester streaming additional benign batches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < ingestBatches; i++ {
			w := gen.Generate(gen.Config{Seed: int64(100 + i), BenignEvents: 300})
			if _, err := sys.IngestRecords(w.Records); err != nil {
				errs <- fmt.Errorf("ingester batch %d: %w", i, err)
				return
			}
		}
	}()

	// Relational-backend hunters.
	for h := 0; h < 4; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			for i := 0; i < huntsPerActor; i++ {
				res, err := sys.Hunt(concurrentCrackTBQL)
				if err != nil {
					errs <- fmt.Errorf("hunter %d: %w", h, err)
					return
				}
				if len(res.Rows) < 1 {
					errs <- fmt.Errorf("hunter %d: attack disappeared", h)
					return
				}
			}
		}(h)
	}

	// Graph-backend (path pattern) hunters.
	for h := 0; h < 2; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			for i := 0; i < huntsPerActor; i++ {
				res, err := sys.Hunt(concurrentPathTBQL)
				if err != nil {
					errs <- fmt.Errorf("path hunter %d: %w", h, err)
					return
				}
				if len(res.Rows) < 1 {
					errs <- fmt.Errorf("path hunter %d: attack disappeared", h)
					return
				}
			}
		}(h)
	}

	// Cursor hunters streaming rows instead of materializing them.
	for h := 0; h < 2; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			for i := 0; i < huntsPerActor; i++ {
				cur, err := huntCursor(sys, concurrentCrackTBQL)
				if err != nil {
					errs <- fmt.Errorf("cursor hunter %d: %w", h, err)
					return
				}
				rows := 0
				for cur.Next() {
					var exe, file string
					if err := cur.Scan(&exe, &file); err != nil {
						errs <- fmt.Errorf("cursor hunter %d: %w", h, err)
						cur.Close()
						return
					}
					rows++
				}
				cur.Close()
				if rows < 1 {
					errs <- fmt.Errorf("cursor hunter %d: attack disappeared", h)
					return
				}
			}
		}(h)
	}

	// An explainer compiling the schedule while data changes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < huntsPerActor; i++ {
			q, err := sys.ParseQuery(concurrentCrackTBQL)
			if err != nil {
				errs <- err
				return
			}
			eps, err := sys.Explain(nil, q, nil)
			if err != nil {
				errs <- err
				return
			}
			if len(eps) == 0 {
				errs <- fmt.Errorf("explainer: empty schedule")
				return
			}
		}
	}()

	// An investigator tracking causality from the point of interest.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < huntsPerActor; i++ {
			sub := sys.Investigate(poiID, TrackOptions{Direction: TrackBackward, MaxDepth: 4})
			if sub == nil {
				errs <- fmt.Errorf("investigator: nil subgraph")
				return
			}
		}
	}()

	// A reader polling counters and entity lookups.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < huntsPerActor*4; i++ {
			if sys.NumEvents() <= 0 || sys.NumEntities() <= 0 {
				errs <- fmt.Errorf("reader: zero counters mid-run")
				return
			}
			_ = sys.Stats()
			_ = sys.FindEntities("path", "/etc/shadow")
			_ = sys.EntityByID(poiID)
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The serialized ingest batches must all have landed.
	res, err := sys.Hunt(concurrentCrackTBQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 1 {
		t.Error("attack not found after concurrent run")
	}
}

// TestConcurrentIngestSerialized verifies that concurrent ingestion
// batches do not corrupt the high-water-mark bookkeeping: every batch's
// events land exactly once in both stores.
func TestConcurrentIngestSerialized(t *testing.T) {
	sys, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	const batches = 6
	total := 0
	workloads := make([]*gen.Workload, batches)
	for i := range workloads {
		workloads[i] = gen.Generate(gen.Config{Seed: int64(i + 1), BenignEvents: 200})
		total += len(workloads[i].Records)
	}
	var wg sync.WaitGroup
	errs := make(chan error, batches)
	for _, w := range workloads {
		wg.Add(1)
		go func(w *gen.Workload) {
			defer wg.Done()
			if _, err := sys.IngestRecords(w.Records); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if sys.NumEvents() != total {
		t.Errorf("stored %d events, want %d", sys.NumEvents(), total)
	}
	st := sys.Stats()
	if st.GraphEdges != total {
		t.Errorf("graph has %d edges, want %d", st.GraphEdges, total)
	}
	if st.Entities != st.GraphNodes {
		t.Errorf("entity count mismatch: rel=%d graph=%d", st.Entities, st.GraphNodes)
	}
}

// TestHuntCursorFacadeEquivalence asserts the acceptance criterion that
// Result.Rows and HuntCursor return identical rows over the
// password-crack dataset.
func TestHuntCursorFacadeEquivalence(t *testing.T) {
	sys := crackSystem(t, 1500)
	res, err := sys.Hunt(concurrentCrackTBQL)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := huntCursor(sys, concurrentCrackTBQL)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var got [][]string
	for cur.Next() {
		got = append(got, append([]string(nil), cur.Row()...))
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(res.Rows) {
		t.Fatalf("cursor rows = %d, Result.Rows = %d", len(got), len(res.Rows))
	}
	for i := range got {
		if strings.Join(got[i], "\x00") != strings.Join(res.Rows[i], "\x00") {
			t.Errorf("row %d differs: %v vs %v", i, got[i], res.Rows[i])
		}
	}
}
