package threatraptor

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestEpochAdvancesPerCommit: the epoch clock counts ingest commits.
func TestEpochAdvancesPerCommit(t *testing.T) {
	sys, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Epoch() != 0 {
		t.Fatalf("fresh system at epoch %d", sys.Epoch())
	}
	for i := 1; i <= 3; i++ {
		if _, err := sys.IngestRecords(hostBatch("h", i, 10)); err != nil {
			t.Fatal(err)
		}
		if got := sys.Epoch(); got != Epoch(i) {
			t.Fatalf("after %d commits, epoch = %d", i, got)
		}
	}
	cur, err := huntCursor(sys, `proc p read file f as e1
return p, f`)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if cur.Epoch() != 3 {
		t.Fatalf("cursor pinned epoch %d, want 3", cur.Epoch())
	}
}

// TestPinnedCursorPagesEqualEpochMatchSet is the epoch property test at
// the facade level: for several query shapes — single pattern,
// temporal two-pattern join, host-pruned, and sharded variants — a
// cursor opened at a quiet point and paged slowly while per-host
// ingesters hammer the system yields exactly the match set of its
// pinned epoch, in order, with no skips and no repeats. The post-ingest
// store must contain strictly more matches, proving the isolation was
// exercised.
func TestPinnedCursorPagesEqualEpochMatchSet(t *testing.T) {
	queries := []struct {
		name string
		tbql string
	}{
		{"single", `proc p read file f as e1
return p, f`},
		{"temporal-join", `proc p read file f as e1
proc p write file g as e2
with e1 before e2
return p, f, g`},
		{"host-pruned", `proc p[host = "host0"] read file f as e1
return p, f`},
	}
	for _, shards := range []int{1, 4} {
		for _, q := range queries {
			t.Run(fmt.Sprintf("shards-%d/%s", shards, q.name), func(t *testing.T) {
				sys, err := New(Options{Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				const hosts = 3
				for h := 0; h < hosts; h++ {
					if _, err := sys.IngestRecords(hostBatch(fmt.Sprintf("host%d", h), 0, 60)); err != nil {
						t.Fatal(err)
					}
				}

				// Quiet point: open the cursor, then fix the expectation.
				cur, err := huntCursor(sys, q.tbql)
				if err != nil {
					t.Fatal(err)
				}
				defer cur.Close()
				want, err := sys.Hunt(q.tbql)
				if err != nil {
					t.Fatal(err)
				}
				if len(want.Rows) == 0 {
					t.Fatal("fixture produced no matches")
				}

				// Page a first slice, then turn on heavy concurrent ingest:
				// every batch adds rows that match every query above (same
				// hosts, same files, later times). A fixed batch count per
				// host guarantees matches land both while the cursor is
				// mid-pagination and before the final comparison.
				var got [][]string
				for len(got) < 5 && cur.Next() {
					got = append(got, cur.Row())
				}
				var ingest sync.WaitGroup
				for h := 0; h < hosts; h++ {
					ingest.Add(1)
					go func(h int) {
						defer ingest.Done()
						for b := 1; b <= 3; b++ {
							if _, err := sys.IngestRecords(hostBatch(fmt.Sprintf("host%d", h), b, 40)); err != nil {
								t.Error(err)
								return
							}
						}
					}(h)
				}
				for cur.Next() {
					got = append(got, cur.Row())
				}
				ingest.Wait()
				if err := cur.Err(); err != nil {
					t.Fatal(err)
				}

				if len(got) != len(want.Rows) {
					t.Fatalf("pinned cursor paged %d rows under ingest, epoch match set has %d",
						len(got), len(want.Rows))
				}
				for i := range got {
					if strings.Join(got[i], "\x00") != strings.Join(want.Rows[i], "\x00") {
						t.Fatalf("row %d: paged %v != epoch row %v", i, got[i], want.Rows[i])
					}
				}

				after, err := sys.Hunt(q.tbql)
				if err != nil {
					t.Fatal(err)
				}
				if len(after.Rows) <= len(want.Rows) {
					t.Fatalf("ingest added no matches (%d <= %d): property not exercised",
						len(after.Rows), len(want.Rows))
				}
			})
		}
	}
}
