package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"maps"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/audit"
	"repro/internal/audit/gen"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/wal"
)

// The ingest workload: durable writes with a standing hunt. The store is
// WAL-backed with the daemon's default batched fsync; set-up preloads it,
// closes the log cleanly and reopens it (so set-up includes WAL replay).
// One open-loop client POSTs fresh 500-record multi-host batches at a
// fixed rate over one connection, and one NDJSON /watch/stream
// connection streams a standing credential-access rule that matches in
// every batch.

const (
	ingestBatch  = 500 // records per POST /ingest
	ingestRate   = 20  // batches per second (10k events/s)
	ingestWarmup = 20  // batches sent before timing starts
	// pidStride separates process ids: batch k's processes have pids in
	// [(k+1)*pidStride, (k+2)*pidStride), so a watch row names its batch.
	// Preload pids stay below it.
	pidStride     = 100000
	deliveryLimit = 10 * time.Second // how long a check waits for watch rows
)

// ingestRule is the standing hunt: /etc/passwd read, then /etc/shadow
// read, by the same process.
const ingestRule = `proc p read file f1["%/etc/passwd%"] as e1
proc p read file f2["%/etc/shadow%"] as e2
with e1 before e2
return p.pid, f1, f2`

// genBatch generates batch k: ingestBatch fresh records over every host,
// after the preload in log time, with pids unique to the batch.
func genBatch(seed int64, k int, afterNS int64) []byte {
	start := time.Unix(0, afterNS).Add(time.Duration(k+1) * time.Second)
	off := (k + 1) * pidStride
	var recs []audit.Record
	for h := 0; h < numHosts; h++ {
		w := gen.Generate(gen.Config{
			Seed:         seed*7919 + int64(k*numHosts+h) + 1,
			Host:         hostName(h),
			Start:        start,
			Duration:     time.Second,
			BenignEvents: ingestBatch/numHosts + 3,
		})
		for _, r := range w.Records {
			r.PID += off
			if r.ObjType == audit.EntityProcess {
				pid, exe, _ := strings.Cut(r.ObjSpec, ":") // "<pid>:<exe>"
				n, _ := strconv.Atoi(pid)
				r.ObjSpec = audit.ProcSpec(n+off, exe)
			}
			recs = append(recs, r)
		}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].StartNS < recs[j].StartNS })
	return formatLog(recs[:ingestBatch])
}

// batchOf maps a rule row's pid to its batch (-1 for the preload).
func batchOf(row []string) int {
	n, err := strconv.Atoi(row[0])
	if err != nil {
		return math.MinInt
	}
	return n/pidStride - 1
}

// rowKey is a multiset key for a row.
func rowKey(r []string) string { return strings.Join(r, "\x1f") }

// deliveries collects standing-hunt rows as they arrive.
type deliveries struct {
	mu    sync.Mutex
	rows  map[string]int    // multiset of every delivered row
	n     int               // rows delivered
	first map[int]time.Time // batch → arrival of its first row
	count map[int]int       // batch → rows delivered
	err   error             // a terminal frame or a broken stream
}

func newDeliveries() *deliveries {
	return &deliveries{rows: map[string]int{}, first: map[int]time.Time{}, count: map[int]int{}}
}

func (d *deliveries) record(rows [][]string, at time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, r := range rows {
		d.rows[rowKey(r)]++
		d.n++
		b := batchOf(r)
		if _, ok := d.first[b]; !ok {
			d.first[b] = at
		}
		d.count[b]++
	}
}

// check waits until as many rows as want holds have arrived, then
// compares the multisets.
func (d *deliveries) check(want map[string]int, wantN int, what string) error {
	for deadline := time.Now().Add(deliveryLimit); ; time.Sleep(5 * time.Millisecond) {
		d.mu.Lock()
		n, err := d.n, d.err
		d.mu.Unlock()
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if n >= wantN || time.Now().After(deadline) {
			break
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !maps.Equal(d.rows, want) {
		return fmt.Errorf("%s: streamed %d rows (%d distinct), re-execution has %d (%d distinct)", what, d.n, len(d.rows), wantN, len(want))
	}
	return nil
}

// stream reads an NDJSON /watch/stream connection into d until closed.
type stream struct {
	cancel context.CancelFunc
	done   chan struct{}
}

func openStream(base, id string, d *deliveries) (*stream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	c := newClient(base)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/watch/stream?format=ndjson&watch="+url.QueryEscape(id), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("watch stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("watch stream: status %d", resp.StatusCode)
	}
	s := &stream{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer c.close()
		defer resp.Body.Close()
		r := bufio.NewReader(resp.Body)
		for {
			line, err := r.ReadBytes('\n')
			if len(line) > 0 {
				var f service.WatchFrame
				if jerr := json.Unmarshal(line, &f); jerr != nil || f.Error != "" {
					d.mu.Lock()
					d.err = fmt.Errorf("watch frame %q: %v", line, jerr)
					d.mu.Unlock()
					return
				}
				d.record(f.Rows, time.Now())
			}
			if err != nil {
				if ctx.Err() == nil {
					d.mu.Lock()
					d.err = fmt.Errorf("watch stream: %w", err)
					d.mu.Unlock()
				}
				return
			}
		}
	}()
	return s, nil
}

func (s *stream) close() {
	s.cancel()
	<-s.done
}

// ruleRows re-executes the rule in-process at the current epoch, paging
// and encoding like the daemon.
func ruleRows(tr *tracer, sys *threatraptor.System) (map[string]int, int, error) {
	req := tr.req()
	root := tr.begin("op.rule", 0, req)
	h, err := huntInProcess(tr, sys, root, req, ingestRule, false, math.MaxInt32)
	tr.end(root)
	if err != nil {
		return nil, 0, fmt.Errorf("re-executing the rule: %w", err)
	}
	want := map[string]int{}
	n := 0
	for _, p := range h.pages {
		for _, r := range p {
			want[rowKey(r)]++
			n++
		}
	}
	return want, n, nil
}

// openDurable opens the data dir with the daemon's default durability
// settings (-fsync 100ms, -segment-interval 1m) and recovers it.
func openDurable(dir string, m *obs.Metrics) (*threatraptor.System, *wal.Log, error) {
	policy, err := wal.ParsePolicy(wal.DefaultFsyncInterval.String())
	if err != nil {
		return nil, nil, err
	}
	log, err := wal.Open(dir, wal.Config{Fsync: policy, SegmentInterval: time.Minute, Shards: numShards, Metrics: m})
	if err != nil {
		return nil, nil, err
	}
	sys, err := threatraptor.New(threatraptor.Options{Shards: numShards, WAL: log, DisableTracing: true, Metrics: m})
	if err != nil {
		log.Close()
		return nil, nil, err
	}
	return sys, log, nil
}

// setupDurable preloads a fresh data dir, closes the log cleanly and
// reopens it; it returns the reopened store and the reopen time. With
// allocs set it counts the preload's allocations there.
func setupDurable(dir string, in *storeInput, m *obs.Metrics, allocs *float64) (built, time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return built{}, 0, err
	}
	sys, log, err := openDurable(dir, m)
	if err != nil {
		return built{}, 0, err
	}
	var meter *allocMeter
	if allocs != nil {
		meter = startAllocs()
	}
	if err := preload(sys, in, nil); err != nil {
		log.Close()
		return built{}, 0, err
	}
	if meter != nil {
		*allocs, _, _ = meter.stop()
	}
	if err := log.Close(); err != nil {
		return built{}, 0, err
	}
	start := time.Now()
	sys, log, err = openDurable(dir, m)
	if err != nil {
		return built{}, 0, err
	}
	replay := time.Since(start)
	return built{sys: sys, log: log, dir: dir, release: func() {
		log.Close()
		os.RemoveAll(dir)
	}}, replay, nil
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// openLoop sends batches at ingestRate, each due at its slot whether or
// not the previous one was acknowledged. A batch waits for the one
// connection, so a stall delays every later batch; each is timed from
// its due time.
type openLoop struct {
	due       map[int]time.Time
	ack, late []float64 // due → ack; due → send (timed batches)
	service   []float64 // send → ack
	// cpu holds the process's CPU milliseconds per batch over each 1 s
	// window (ingestRate timed batches).
	cpu           []float64
	acked, events int
	first, last   time.Time // the timed window
}

// run sends every batch; the first warmup batches are not timed.
func (l *openLoop) run(c *client, batches [][]byte, warmup int, out *outcome) {
	l.due = map[int]time.Time{}
	start := time.Now()
	var cpu float64
	for k := range batches {
		due := start.Add(time.Duration(k) * time.Second / ingestRate)
		time.Sleep(time.Until(due))
		if k == warmup {
			cpu = cpuSeconds()
		}
		send := time.Now()
		var resp service.IngestResponse
		err := c.do(http.MethodPost, "/ingest", "text/plain", batches[k], &resp)
		ack := time.Now()
		if err == nil && resp.EventsIn != ingestBatch {
			err = fmt.Errorf("acked %d of %d records", resp.EventsIn, ingestBatch)
		}
		if err != nil {
			out.record(fmt.Errorf("batch %d: %w", k, err))
			continue
		}
		out.record(nil)
		l.acked++
		l.events += resp.EventsStored
		l.due[k] = due
		if k < warmup {
			continue
		}
		if l.first.IsZero() {
			l.first = due
		}
		l.last = ack
		l.ack = append(l.ack, msBetween(due, ack))
		l.late = append(l.late, msBetween(due, send))
		l.service = append(l.service, msBetween(send, ack))
		if len(l.ack)%ingestRate == 0 {
			c := cpuSeconds()
			l.cpu = append(l.cpu, (c-cpu)*1000/ingestRate)
			cpu = c
		}
	}
}

// detect is the due → first-row latency of every timed batch that
// matched, in batch order, and the number of timed batches that did not.
func (l *openLoop) detect(d *deliveries, warmupUntil int) ([]float64, int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []float64
	missed := 0
	var timed []int
	for k := range l.due {
		if k >= warmupUntil {
			timed = append(timed, k)
		}
	}
	sort.Ints(timed)
	for _, k := range timed {
		due := l.due[k]
		if at, ok := d.first[k]; ok {
			out = append(out, msBetween(due, at))
		} else {
			missed++
		}
	}
	return out, missed
}

func runIngest(cfg config) (*outcome, error) {
	out := &outcome{}
	in := genStore(cfg.seed)
	m := obs.NewMetrics()
	httpSecs := cfg.seconds
	if cfg.trace {
		httpSecs = cfg.seconds / 2
	}
	httpBatches := ingestWarmup + int(math.Ceil(httpSecs*ingestRate))
	replayBatches := 0
	if cfg.trace {
		replayBatches = max(2, int(math.Ceil(cfg.seconds/2*ingestRate)))
	}
	batches := make([][]byte, httpBatches+replayBatches)
	for k := range batches {
		batches[k] = genBatch(cfg.seed, k, in.endNS)
	}

	layers := map[string]float64{}
	var tr *tracer
	var st setupResult
	dirOf := func(i int) string { return filepath.Join(cfg.dir, fmt.Sprintf("data-%d-%d", os.Getpid(), i)) }
	if !cfg.trace {
		repeat := 0
		var err error
		st, err = measureSetup(setupRepeats, func() (built, error) {
			repeat++
			b, _, err := setupDurable(dirOf(repeat), in, m, nil)
			return b, err
		})
		if err != nil {
			return nil, err
		}
	} else {
		tr = newTracer()
		var allocs float64
		b, replay, err := setupDurable(dirOf(0), in, m, &allocs)
		if err != nil {
			return nil, err
		}
		st.built = b
		layers["ingest.allocs_per_event"] = allocs / float64(in.events)
		layers["wal.replay_s"] = replay.Seconds()
		storeLayers(b.sys, layers)
	}
	defer func() {
		if st.release != nil {
			st.release()
		}
	}()
	sys := st.sys
	if sys.NumEvents() != in.events {
		return nil, fmt.Errorf("recovered %d events after set-up, preloaded %d", sys.NumEvents(), in.events)
	}

	srv, err := serve(sys, st.log, m)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	c := newClient(srv.base)
	defer c.close()
	var wr service.WatchResponse
	body, err := json.Marshal(service.WatchRequest{Query: ingestRule})
	if err != nil {
		return nil, err
	}
	if err := c.do(http.MethodPost, "/watch", "application/json", body, &wr); err != nil {
		return nil, err
	}
	streamed := newDeliveries()
	s, err := openStream(srv.base, wr.WatchID, streamed)
	if err != nil {
		return nil, err
	}

	gcMeter := startAllocs()
	w0 := sys.WALStats()
	var loop openLoop
	loop.run(c, batches[:httpBatches], ingestWarmup, out)
	w1 := sys.WALStats()
	sys.SyncWatches()
	want, wantN, err := ruleRows(tr, sys)
	if err != nil {
		s.close()
		return nil, err
	}
	out.record(streamed.check(want, wantN, "HTTP watch stream"))
	s.close()
	if err := c.do(http.MethodDelete, "/watch?watch="+url.QueryEscape(wr.WatchID), "", nil, nil); err != nil {
		return nil, err
	}
	detect, missed := loop.detect(streamed, ingestWarmup)
	disk, err := dirBytes(st.dir)
	if err != nil {
		return nil, err
	}
	diskPerEvent := ratio(float64(disk), float64(sys.NumEvents()))
	timed := len(loop.ack)
	perSecond := ratio(float64(timed), loop.last.Sub(loop.first).Seconds())
	out.printf("ingest: %d batches of %d records (%d timed) at %d/s open loop over one connection; %d watch rows streamed; %d timed batches without a match",
		loop.acked, ingestBatch, timed, ingestRate, streamed.n, missed)
	out.printf("load generator lateness (due → send): p50 %.4f ms, max %.4f ms", median(loop.late), maxOf(loop.late))
	if maxOf(loop.late) > 1000/ingestRate {
		out.printf("WARNING: the open-loop generator fell behind: a batch was sent %.1f ms after it was due (interval %d ms)", maxOf(loop.late), 1000/ingestRate)
	}
	out.printf("disk_bytes_per_event %.2f B (%d bytes in the data dir over %d events)", diskPerEvent, disk, sys.NumEvents())

	acked := loop.events
	if cfg.trace {
		layers["wal.syncs_per_commit"] = ratio(float64(w1.Syncs-w0.Syncs), float64(w1.Records-w0.Records))
		layers["wal.records"] = float64(w1.Records)
		layers["wal.disk_bytes_per_event"] = diskPerEvent
		layers["loadgen.late_ms_p50"], layers["loadgen.late_ms_max"] = median(loop.late), maxOf(loop.late)
		if err := queryCacheRatio(srv.base, layers); err != nil {
			return nil, err
		}
		n, inProc, err := replayIngest(out, tr, sys, batches, httpBatches, replayBatches, layers)
		if err != nil {
			return nil, err
		}
		_, _, layers["runtime.gc_cpu_fraction"] = gcMeter.stop()
		acked += n
		layers["service.overhead_ms"] = median(loop.service) - inProc
		out.printf("service.overhead_ms base: HTTP send → ack p50 %.4f ms - in-process parse+commit p50 %.4f ms", median(loop.service), inProc)
	} else {
		reportE2E(out, st, e2e{
			op:           "ingest",
			opSamples:    loop.ack,
			opWindowed:   windowed(loop.ack, ingestRate, median),
			step:         "detect",
			stepSamples:  detect,
			stepWindowed: windowed(detect, ingestRate, median),
			windows:      fmt.Sprintf("median over 1 s windows of %d batches of each window's p50", ingestRate),
			rate:         "batches_per_s",
			perSecond:    perSecond,
			rateHow:      "acknowledged timed batches over the timed window",
			cpu:          "batch",
			cpuMs:        loop.cpu,
		})
	}

	// Durability: after a clean close, a reopened store holds the
	// preload plus every acknowledged event.
	if err := srv.close(); err != nil {
		return nil, err
	}
	st.release = nil
	if err := st.log.Close(); err != nil {
		return nil, err
	}
	re, relog, err := openDurable(st.dir, m)
	if err != nil {
		return nil, err
	}
	if re.NumEvents() != in.events+acked {
		out.record(fmt.Errorf("reopened store holds %d events, want %d preloaded + %d acknowledged", re.NumEvents(), in.events, acked))
	} else {
		out.record(nil)
	}
	relog.Close()
	os.RemoveAll(st.dir)
	if cfg.trace {
		return out, finishTrace(out, cfg, tr, layers)
	}
	return out, nil
}

// replayIngest replays batches [from, from+n) in-process at the same
// rate, alternately traced and untraced, with the rule registered
// through System.Watch. It sets the standing-hunt and tracing layers and
// returns the events stored and the untraced parse+commit median.
func replayIngest(out *outcome, tr *tracer, sys *threatraptor.System, batches [][]byte, from, n int, layers map[string]float64) (int, float64, error) {
	q, err := sys.ParseQuery(ingestRule)
	if err != nil {
		return 0, 0, err
	}
	w, err := sys.Watch(q, threatraptor.WatchOptions{})
	if err != nil {
		return 0, 0, err
	}
	got := newDeliveries()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for b := range w.C() {
			got.record(b.Rows, time.Now())
		}
	}()
	returned := map[int]time.Time{}
	reqOf := map[int]int64{}
	var tracedMs, untracedMs []float64
	events := 0
	start := time.Now()
	for j := 0; j < n; j++ {
		k := from + j
		time.Sleep(time.Until(start.Add(time.Duration(j) * time.Second / ingestRate)))
		t := tr
		if j%2 == 0 {
			t = nil
		}
		begin := time.Now()
		st, req, err := tracedIngest(t, sys, batches[k], "op.ingest")
		end := time.Now()
		out.record(err)
		if err != nil {
			continue
		}
		events += st.EventsStored
		returned[k] = end
		if t == nil {
			untracedMs = append(untracedMs, msBetween(begin, end))
		} else {
			tracedMs = append(tracedMs, msBetween(begin, end))
			reqOf[k] = req
		}
	}
	sys.SyncWatches()
	want, wantN, err := ruleRows(tr, sys)
	if err != nil {
		w.Close()
		<-done
		return events, 0, err
	}
	out.record(got.check(want, wantN, "System.Watch"))
	w.Close()
	<-done

	rows := 0
	for k, ret := range returned {
		rows += got.count[k]
		if at, ok := got.first[k]; ok && reqOf[k] != 0 {
			tr.add("standing.deliver", 0, reqOf[k], ret, maxTime(ret, at))
		}
	}
	layers["standing.rows_per_commit"] = ratio(float64(rows), float64(len(returned)))
	layers["tracing.overhead_ratio"] = ratio(mean(tracedMs), mean(untracedMs)) - 1
	out.printf("replay: %d traced and %d untraced in-process batches; %d rule rows delivered through System.Watch", len(tracedMs), len(untracedMs), rows)
	return events, median(untracedMs), nil
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}
