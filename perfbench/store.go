package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/audit"
	"repro/internal/audit/gen"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/wal"
)

// The store every workload starts from: 8 hosts with ~12.5k benign
// events each and both scripted attacks on every host (~100k events),
// in a 2-shard System.
const (
	numHosts      = 8
	benignPerHost = 12500
	numShards     = 2
	// preloadChunk is the number of log lines per preload call, the
	// facade's default commit size.
	preloadChunk = threatraptor.DefaultIngestChunk
	// setupRepeats is how many times a run builds its store; setup_s is
	// the median.
	setupRepeats = 3
)

func hostName(i int) string { return fmt.Sprintf("host%d", i) }

func allHosts() []string {
	hs := make([]string, numHosts)
	for i := range hs {
		hs[i] = hostName(i)
	}
	return hs
}

// storeInput is the generated preload as Sysdig-style log text.
type storeInput struct {
	chunks [][]byte // preloadChunk lines each, in time order
	events int
	truth  map[string][]gen.GroundTruthStep // ground truth per host
	endNS  int64                            // latest record end time
}

// genStore generates the preload from the seed: per-host seeds and
// attack times come from one seeded stream.
func genStore(seed int64) *storeInput {
	rng := rand.New(rand.NewSource(seed))
	in := &storeInput{truth: map[string][]gen.GroundTruthStep{}}
	var recs []audit.Record
	for h := 0; h < numHosts; h++ {
		leakAt := time.Duration(5+rng.Intn(20)) * time.Minute
		crackAt := time.Duration(30+rng.Intn(25)) * time.Minute
		w := gen.Generate(gen.Config{
			Seed:         rng.Int63(),
			Host:         hostName(h),
			Duration:     time.Hour,
			BenignEvents: benignPerHost,
			Attacks: []gen.Attack{
				{Kind: gen.AttackDataLeakage, At: leakAt},
				{Kind: gen.AttackPasswordCrack, At: crackAt},
			},
		})
		recs = append(recs, w.Records...)
		in.truth[hostName(h)] = w.Truth
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].StartNS < recs[j].StartNS })
	in.events = len(recs)
	for start := 0; start < len(recs); start += preloadChunk {
		end := min(start+preloadChunk, len(recs))
		in.chunks = append(in.chunks, formatLog(recs[start:end]))
	}
	for _, r := range recs {
		in.endNS = max(in.endNS, r.EndNS)
	}
	return in
}

// formatLog renders records as log lines.
func formatLog(recs []audit.Record) []byte {
	var b bytes.Buffer
	for _, r := range recs {
		b.WriteString(audit.FormatRecord(r))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// preload ingests the store through the facade's log path. With a
// tracer it parses and commits separately, one span each.
func preload(sys *threatraptor.System, in *storeInput, tr *tracer) error {
	for _, c := range in.chunks {
		var err error
		if tr == nil {
			_, err = sys.IngestLogs(bytes.NewReader(c))
		} else {
			_, _, err = tracedIngest(tr, sys, c, "op.preload")
		}
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// newMemSystem builds the memory-only System the hunt and cti workloads
// serve: daemon defaults, 2 shards, tracing off.
func newMemSystem(metrics *obs.Metrics) (*threatraptor.System, error) {
	return threatraptor.New(threatraptor.Options{
		Shards:         numShards,
		DisableTracing: true,
		Metrics:        metrics,
	})
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// built is one set-up store; release frees what it holds outside the
// heap (a durability log, its data dir).
type built struct {
	sys     *threatraptor.System
	log     *wal.Log
	dir     string // the data dir of a durable store
	release func()
}

// setupResult is a measured set-up.
type setupResult struct {
	built
	times        []float64 // seconds per repeat
	heapPerEvent float64   // live heap added by the store, per stored event
	events       int       // events stored at the end of set-up
}

// measureSetup builds the store n times and keeps the last one. Each
// build runs from a collected heap, so the live heap it adds — the
// store, not the benchmark's inputs, which were allocated before —
// is measured after the last build.
func measureSetup(n int, build func() (built, error)) (setupResult, error) {
	var res setupResult
	for i := 0; i < n; i++ {
		if res.release != nil {
			res.release()
		}
		res.built = built{}
		base := liveHeap()
		start := time.Now()
		b, err := build()
		if err != nil {
			return res, err
		}
		res.times = append(res.times, time.Since(start).Seconds())
		res.built = b
		if i == n-1 {
			res.events = b.sys.NumEvents()
			res.heapPerEvent = ratio(float64(liveHeap())-float64(base), float64(res.events))
		}
	}
	return res, nil
}

// served is a System behind service.Server on a loopback listener.
type served struct {
	svc   *service.Server
	srv   *http.Server
	base  string
	done  chan error
	once  sync.Once
	error error
}

// serve starts the daemon's HTTP layer over sys with daemon defaults
// (tracing off). The listener binds 127.0.0.1 on a free port.
func serve(sys *threatraptor.System, log *wal.Log, metrics *obs.Metrics) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	svc := service.NewWithConfig(sys, service.Config{
		WAL:     log,
		NoTrace: true,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
		Metrics: metrics,
	})
	// The daemon's http.Server settings (cmd/threatraptord).
	srv := &http.Server{
		Handler:           svc,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	s := &served{svc: svc, srv: srv, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ln) }()
	return s, nil
}

// close drains the server and releases its background consumers. Only
// the first call does anything.
func (s *served) close() error {
	s.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.error = s.srv.Shutdown(ctx)
		if s.error != nil {
			s.srv.Close()
		}
		if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) && s.error == nil {
			s.error = err
		}
		s.svc.Close()
	})
	return s.error
}
