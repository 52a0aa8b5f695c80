package threatraptor

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/audit"
)

// entityBatch is hostBatch with per-batch object files, so every batch
// interns NEW file entities — the batch kind that, under the lock-pinned
// design, queued behind every open cursor (the entity broadcast wrote
// shard 0's entity table, which every cursor read-locked).
func entityBatch(host string, batch, events int) []Record {
	recs := make([]Record, 0, events)
	base := int64(batch * 1_000_000)
	for i := 0; i < events; i++ {
		recs = append(recs, Record{
			StartNS: base + int64(i)*10, EndNS: base + int64(i)*10 + 1,
			Host: host, PID: 100, Exe: "/bin/worker",
			Op: audit.OpRead, ObjType: audit.EntityFile,
			ObjSpec: fmt.Sprintf("/data/%s-b%d-%d", host, batch, i%32), Amount: 64,
		})
	}
	return recs
}

// BenchmarkIngestUnderOpenCursors is the acceptance benchmark for the
// epoch design: ingest throughput while N long-lived cursors are held
// open mid-pagination. Every timed batch interns new entities — the
// formerly worst case. Under the lock-pinned design this degraded
// without bound (every batch queued behind every cursor for the
// cursors' whole lifetimes); under epoch snapshots a held cursor costs
// writers nothing, so the cursors-N variants must stay within ~2× of
// cursors-0.
func BenchmarkIngestUnderOpenCursors(b *testing.B) {
	const (
		hosts    = 4
		perBatch = 500
		shards   = 4
	)
	const wide = `proc p read file f as e1
return p, f`
	for _, cfg := range []struct {
		name    string
		cursors int
	}{
		{"cursors-0", 0},
		{"cursors-8", 8},
		{"cursors-64", 64},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.SetBytes(int64(hosts * perBatch))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys, err := New(Options{Shards: shards})
				if err != nil {
					b.Fatal(err)
				}
				for h := 0; h < hosts; h++ {
					if _, err := sys.IngestRecords(entityBatch(fmt.Sprintf("host%d", h), 0, perBatch)); err != nil {
						b.Fatal(err)
					}
				}
				// Open the cursors mid-pagination and keep them open across
				// the timed ingest.
				open := make([]*Cursor, 0, cfg.cursors)
				for c := 0; c < cfg.cursors; c++ {
					cur, err := huntCursor(sys, wide)
					if err != nil {
						b.Fatal(err)
					}
					for n := 0; n < 32 && cur.Next(); n++ {
					}
					open = append(open, cur)
				}
				b.StartTimer()

				var wg sync.WaitGroup
				for h := 0; h < hosts; h++ {
					wg.Add(1)
					go func(h int) {
						defer wg.Done()
						if _, err := sys.IngestRecords(entityBatch(fmt.Sprintf("host%d", h), 1, perBatch)); err != nil {
							b.Error(err)
						}
					}(h)
				}
				wg.Wait()

				b.StopTimer()
				for _, cur := range open {
					cur.Close()
				}
				b.StartTimer()
			}
		})
	}
}
