package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/audit"
	"repro/internal/exec"
	"repro/internal/service"
)

// The traced run records spans from this benchmark's own code, around
// calls into each layer's public functions; nothing inside the program
// is instrumented. A nil *tracer records nothing, so the same replay
// code runs traced and untraced.

// span is one recorded call.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 = root
	Req    int64  `json:"req"`    // request id shared by one operation's spans
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	reqs   int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// req allocates a request id.
func (t *tracer) req() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// begin opens a span and returns its id (0 when t is nil).
func (t *tracer) begin(name string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return int64(len(t.spans))
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span that has already ended.
func (t *tracer) add(name string, parent, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))})
}

// layerStat summarises the spans of one name.
type layerStat struct {
	durs []float64 // milliseconds
	self float64   // total self time, milliseconds
}

// summarize groups closed spans by the name of their root span, then by
// their own name. Self time is a span's duration minus its children's.
func (t *tracer) summarize() map[string]map[string]*layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.End >= 0 && s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	// A parent always precedes its children in t.spans.
	root := make([]string, len(t.spans)+1)
	out := map[string]map[string]*layerStat{}
	for _, s := range t.spans {
		root[s.ID] = s.Name
		if s.Parent > 0 {
			root[s.ID] = root[s.Parent]
		}
		if s.End < 0 {
			continue
		}
		byName := out[root[s.ID]]
		if byName == nil {
			byName = map[string]*layerStat{}
			out[root[s.ID]] = byName
		}
		st := byName[s.Name]
		if st == nil {
			st = &layerStat{}
			byName[s.Name] = st
		}
		st.durs = append(st.durs, float64(s.End-s.Start)/1e6)
		st.self += float64(s.End-s.Start-child[s.ID]) / 1e6
	}
	return out
}

// write stores every span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedIngest parses and commits one log batch as two spans under a
// root span named op.
func tracedIngest(tr *tracer, sys *threatraptor.System, text []byte, op string) (threatraptor.IngestStats, int64, error) {
	req := tr.req()
	root := tr.begin(op, 0, req)
	defer tr.end(root)
	sp := tr.begin("audit.parse", root, req)
	recs, _, err := audit.ParseRecords(bytes.NewReader(text), false)
	tr.end(sp)
	if err != nil {
		return threatraptor.IngestStats{}, req, err
	}
	sp = tr.begin("ingest.commit", root, req)
	st, err := sys.IngestRecords(recs)
	tr.end(sp)
	return st, req, err
}

// inProcHunt is one hunt run in-process.
type inProcHunt struct {
	cols    []string
	pages   [][][]string
	firstMs float64 // start → first page encoded
	bytes   int     // encoded size of every page
	stats   exec.Stats
}

// huntInProcess runs a hunt the way POST /hunt and GET /hunt/next do —
// parse, open a cursor (capped at one page plus a look-ahead row for a
// no-cursor hunt), read up to pages pages, encode each as a
// service.HuntResponse — with one span per call, under parent.
func huntInProcess(tr *tracer, sys *threatraptor.System, parent, req int64, src string, noCursor bool, pages int) (*inProcHunt, error) {
	start := time.Now()
	sp := tr.begin("tbql.parse", parent, req)
	q, err := sys.ParseQuery(src)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	limit := 0
	if noCursor {
		limit = pageSize + 1
	}
	sp = tr.begin("exec.open", parent, req)
	cur, err := sys.HuntQueryCursorCtx(context.Background(), q, limit, nil)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	h := &inProcHunt{cols: cur.Columns()}
	var buf bytes.Buffer
	for p := 0; p < pages; p++ {
		sp = tr.begin("exec.next", parent, req)
		rows := make([][]string, 0, pageSize)
		for len(rows) < pageSize && cur.Next() {
			rows = append(rows, cur.Row())
		}
		tr.end(sp)
		if err := cur.Err(); err != nil {
			return nil, err
		}
		sp = tr.begin("service.encode", parent, req)
		buf.Reset()
		err := json.NewEncoder(&buf).Encode(service.HuntResponse{
			Columns: cur.Columns(),
			Rows:    rows,
			Offset:  p * pageSize,
			Count:   len(rows),
			Epoch:   uint64(cur.Epoch()),
		})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		h.bytes += buf.Len()
		h.pages = append(h.pages, rows)
		if p == 0 {
			h.firstMs = msBetween(start, time.Now())
		}
		if len(rows) < pageSize {
			break
		}
	}
	h.stats = cur.Stats()
	return h, nil
}

// huntCounters accumulates cursor counters over in-process hunts.
type huntCounters struct {
	hunts, rows, fetched, candidates, shardFetches, bytes int
}

func (c *huntCounters) add(h *inProcHunt) {
	c.hunts++
	for _, p := range h.pages {
		c.rows += len(p)
	}
	c.fetched += h.stats.RowsFetched
	c.candidates += h.stats.JoinCandidates
	c.shardFetches += h.stats.ShardFetches
	c.bytes += h.bytes
}

func (c *huntCounters) fill(v map[string]float64) {
	v["exec.rows_fetched_per_row"] = ratio(float64(c.fetched), float64(c.rows))
	v["exec.join_candidates_per_row"] = ratio(float64(c.candidates), float64(c.rows))
	v["exec.shard_fetches_per_hunt"] = ratio(float64(c.shardFetches), float64(c.hunts))
	v["service.response_bytes_per_row"] = ratio(float64(c.bytes), float64(c.rows))
}

// allocMeter measures allocations and GC CPU over a sequential pass.
type allocMeter struct {
	ms      runtime.MemStats
	samples []metrics.Sample
}

var gcCPUMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func startAllocs() *allocMeter {
	a := &allocMeter{}
	for _, n := range gcCPUMetrics {
		a.samples = append(a.samples, metrics.Sample{Name: n})
	}
	metrics.Read(a.samples)
	runtime.ReadMemStats(&a.ms)
	return a
}

// stop returns the objects and bytes allocated since start and the
// share of CPU time spent in GC.
func (a *allocMeter) stop() (mallocs, bytes, gcFraction float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	now := make([]metrics.Sample, len(a.samples))
	copy(now, a.samples)
	metrics.Read(now)
	gc := now[0].Value.Float64() - a.samples[0].Value.Float64()
	total := now[1].Value.Float64() - a.samples[1].Value.Float64()
	return float64(ms.Mallocs - a.ms.Mallocs), float64(ms.TotalAlloc - a.ms.TotalAlloc), ratio(gc, total)
}

// layerMetrics lists every per-layer metric with its unit, in the order
// BENCHMARK.json lists them. A traced run reports all of them; a layer
// the workload does not exercise reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"tbql.parse_ms", "ms"},
	{"service.query_cache_hit_ratio", "ratio"},
	{"exec.open_ms", "ms"},
	{"exec.plan_cache_hit_ratio", "ratio"},
	{"exec.next_ms", "ms"},
	{"exec.rows_fetched_per_row", "count"},
	{"exec.join_candidates_per_row", "count"},
	{"exec.shard_fetches_per_hunt", "count"},
	{"exec.allocs_per_hunt", "count"},
	{"exec.alloc_bytes_per_hunt", "B"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"service.encode_ms", "ms"},
	{"service.response_bytes_per_row", "B"},
	{"service.overhead_ms", "ms"},
	{"extract.extract_ms", "ms"},
	{"extract.allocs_per_report", "count"},
	{"synth.synthesize_ms", "ms"},
	{"audit.parse_ms", "ms"},
	{"ingest.commit_ms", "ms"},
	{"ingest.allocs_per_event", "count"},
	{"audit.entities_per_event", "ratio"},
	{"wal.syncs_per_commit", "ratio"},
	{"wal.records", "count"},
	{"wal.replay_s", "s"},
	{"wal.disk_bytes_per_event", "B"},
	{"standing.deliver_ms", "ms"},
	{"standing.rows_per_commit", "count"},
	{"store.sketch_entries_per_event", "ratio"},
	{"loadgen.late_ms_p50", "ms"},
	{"loadgen.late_ms_max", "ms"},
	{"tracing.overhead_ratio", "ratio"},
}

// spanMetrics maps span names to the per-layer metric reporting their
// median duration.
var spanMetrics = map[string]string{
	"tbql.parse":       "tbql.parse_ms",
	"exec.open":        "exec.open_ms",
	"exec.next":        "exec.next_ms",
	"service.encode":   "service.encode_ms",
	"extract.extract":  "extract.extract_ms",
	"synth.synthesize": "synth.synthesize_ms",
	"audit.parse":      "audit.parse_ms",
	"ingest.commit":    "ingest.commit_ms",
	"standing.deliver": "standing.deliver_ms",
}

// finishTrace writes the span file, prints the per-layer table and
// reports every per-layer metric: span medians from tr, the rest from v.
// The table has one block per kind of root span (one operation class);
// each layer's self share is of the total time of that class's roots.
func finishTrace(out *outcome, cfg config, tr *tracer, v map[string]float64) error {
	path := fmt.Sprintf("%s/spans-%s-%d.json", cfg.dir, cfg.workload, cfg.seed)
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	out.printf("spans written to %s", path)
	sums := tr.summarize()
	durs := map[string][]float64{}
	for _, rootName := range sortedKeys(sums) {
		byName := sums[rootName]
		r := byName[rootName]
		total := 0.0
		for _, d := range r.durs {
			total += d
		}
		out.printf("%s: %d operations, p50 %.4f ms, total %.2f ms", rootName, len(r.durs), median(r.durs), total)
		for _, n := range sortedKeys(byName) {
			st := byName[n]
			durs[n] = append(durs[n], st.durs...)
			if n == rootName {
				continue
			}
			out.printf("  %-18s count %6d  p50 %10.4f ms  self %10.2f ms  %5.1f%% of %s", n, len(st.durs), median(st.durs), st.self, 100*ratio(st.self, total), rootName)
		}
	}
	for span, m := range spanMetrics {
		if d := durs[span]; d != nil {
			v[m] = median(d)
		}
	}
	for _, m := range layerMetrics {
		out.set(m.name, v[m.name], m.unit)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
