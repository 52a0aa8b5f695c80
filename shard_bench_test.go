package threatraptor

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/audit"
	"repro/internal/relstore"
)

// BenchmarkIngestParallelSharded measures multi-host ingest throughput
// against the shard count: 8 per-host client goroutines each ingest one
// batch per iteration through the full System path (parse-intern,
// entity broadcast, per-shard event load). On 1 shard every batch
// serializes on the same table/graph write locks; with 8 shards the
// batches land on disjoint shards and load in parallel.
//
// The "under-hunts" scenarios add a hunter continuously paging
// host0-pinned hunts while the 8 hosts ingest. Under the lock-pinned
// snapshot design this was sharding's headline win (19.5× on 1 core:
// on 1 shard every open cursor pinned THE events table and all ingest
// queued behind every hunt); under epoch snapshots (PR 4) cursors
// block no writers on any shard count, so the 1-shard and 8-shard
// under-hunts numbers should now sit close together — this benchmark
// is the regression guard for that property.
//
// Each iteration starts from a freshly warmed System (outside the
// timer); the warmup interns every entity, so the measured phase is
// event loading, which is where the write locks live. Reported ns/op
// covers 8 × 1000 events.
func BenchmarkIngestParallelSharded(b *testing.B) {
	const hosts = 8
	const perBatch = 1000
	batches := make([][]Record, hosts)
	for h := range batches {
		batches[h] = hostBatch(fmt.Sprintf("host%d", h), 1, perBatch)
	}
	const hostHunt = `proc p[host = "host0"] read file f as e1` + "\nreturn distinct p, f"
	for _, cfg := range []struct {
		name       string
		shards     int
		underHunts bool
	}{
		{"plain/shards-1", 1, false},
		{"plain/shards-8", 8, false},
		{"under-hunts/shards-1", 1, true},
		{"under-hunts/shards-8", 8, true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.SetBytes(int64(hosts * perBatch))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys, err := New(Options{Shards: cfg.shards})
				if err != nil {
					b.Fatal(err)
				}
				for h := 0; h < hosts; h++ {
					// Warmup interns each host's entities so the timed
					// batches are event-only.
					if _, err := sys.IngestRecords(batches[h]); err != nil {
						b.Fatal(err)
					}
				}
				stop := make(chan struct{})
				var hunter sync.WaitGroup
				if cfg.underHunts {
					hunter.Add(1)
					go func() {
						defer hunter.Done()
						for {
							select {
							case <-stop:
								return
							default:
							}
							cur, err := huntCursor(sys, hostHunt)
							if err != nil {
								b.Error(err)
								return
							}
							for n := 0; n < 64 && cur.Next(); n++ {
							}
							cur.Close()
						}
					}()
				}
				b.StartTimer()
				var wg sync.WaitGroup
				for h := 0; h < hosts; h++ {
					wg.Add(1)
					go func(h int) {
						defer wg.Done()
						if _, err := sys.IngestRecords(batches[h]); err != nil {
							b.Error(err)
						}
					}(h)
				}
				wg.Wait()
				b.StopTimer()
				close(stop)
				hunter.Wait()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkIngestStoreParallelSharded isolates the storage layer: the
// same pre-parsed per-host event batches loaded straight into the
// sharded relational store from 8 goroutines, without the parser's
// serialized interning phase or the graph backend in front of it.
func BenchmarkIngestStoreParallelSharded(b *testing.B) {
	const hosts = 8
	const perBatch = 1000
	p := audit.NewParser()
	batches := make([][]*audit.Event, hosts)
	for h := range batches {
		for _, r := range hostBatch(fmt.Sprintf("host%d", h), 1, perBatch) {
			ev, err := p.Add(r)
			if err != nil {
				b.Fatal(err)
			}
			batches[h] = append(batches[h], ev)
		}
	}
	entities := p.Entities()
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			b.SetBytes(int64(hosts * perBatch))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rel, err := relstore.NewSharded(shards)
				if err != nil {
					b.Fatal(err)
				}
				if err := rel.LoadEntities(entities); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				var wg sync.WaitGroup
				for h := 0; h < hosts; h++ {
					wg.Add(1)
					go func(h int) {
						defer wg.Done()
						if err := rel.LoadEvents(batches[h]); err != nil {
							b.Error(err)
						}
					}(h)
				}
				wg.Wait()
			}
		})
	}
}
