package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/audit/gen"
	"repro/internal/ctigen"
	"repro/internal/obs"
)

// The cti workload: the paper's own pipeline, cold. One closed-loop
// analyst takes the next report from one seeded stream, extracts its
// behavior graph and synthesizes TBQL through the facade, then POSTs
// the TBQL and reads the first page. The synthesized patterns far outnumber
// the 256-entry plan cache, so extraction, synthesis, parse and plan
// compile all do work here.

const (
	ctiSteps    = 6  // relation steps per generated report
	ctiCheckGap = 10 // every 10th report is one of the paper's attack reports
	ctiWarmup   = 20 // reports read before timing starts
	// ctiWindow is the number of reports per throughput window: two
	// attack reports and the ctigen reports between them.
	ctiWindow = 2 * ctiCheckGap
)

// ctiReport returns report i of the seed's stream and, for the paper's
// two attack reports, which attack it describes.
func ctiReport(seed int64, i int) (string, gen.AttackKind) {
	if i%ctiCheckGap == ctiCheckGap-1 {
		a := attackReports[(i/ctiCheckGap)%len(attackReports)]
		return a.text, a.kind
	}
	return ctigen.Generate(seed*1_000_003+int64(i)*7919, ctiSteps).Text, 0
}

// checkCTI checks a report's first page: an attack report must find its
// attack on every host; any other report must be a well-formed page.
func checkCTI(rows [][]string, cols []string, kind gen.AttackKind, truth map[string][]gen.GroundTruthStep) error {
	if kind != 0 {
		return checkAttack(rows, kind, allHosts(), truth)
	}
	for _, r := range rows {
		if len(r) != len(cols) {
			return fmt.Errorf("row %v does not match columns %v", r, cols)
		}
	}
	return nil
}

// ctiLoad collects one HTTP phase of the cti workload.
type ctiLoad struct {
	op, post samples // report text → first page; POST /hunt → first page
	late     samples // closed-loop lateness, as in huntLoad
	done     atomic.Int64
	next     atomic.Int64 // the stream position
	// windowRate and windowCPU hold, for each ctiWindow reports, reports
	// per second and the process's CPU milliseconds per report.
	windowRate, windowCPU samples
}

// httpReport runs the pipeline on report i: extraction and synthesis
// through the facade, then the hunt over HTTP.
func (l *ctiLoad) httpReport(c *client, sys *threatraptor.System, seed int64, i int, truth map[string][]gen.GroundTruthStep, prev *time.Time) error {
	text, kind := ctiReport(seed, i)
	start := time.Now()
	if !prev.IsZero() {
		l.late.add(msBetween(*prev, start))
	}
	src, err := synthesize(nil, sys, 0, 0, text)
	if err != nil {
		*prev = time.Now()
		return fmt.Errorf("report %d: %w", i, err)
	}
	post := time.Now()
	resp, err := c.hunt(src, false)
	*prev = time.Now()
	if err != nil {
		return fmt.Errorf("report %d: %w", i, err)
	}
	l.op.add(msBetween(start, *prev))
	l.post.add(msBetween(post, *prev))
	if err := checkCTI(resp.Rows, resp.Columns, kind, truth); err != nil {
		return fmt.Errorf("report %d: %w", i, err)
	}
	if resp.CursorID != "" {
		err := c.closeCursor(resp.CursorID)
		*prev = time.Now()
		if err != nil {
			return fmt.Errorf("report %d: %w", i, err)
		}
	}
	l.done.Add(1)
	return nil
}

// run drives one closed-loop analyst, on one connection, until
// deadline and returns the elapsed seconds. One analyst leaves the second
// core to the runtime and the server, as in the hunt workload.
func (l *ctiLoad) run(base string, sys *threatraptor.System, seed int64, truth map[string][]gen.GroundTruthStep, deadline time.Time, out *outcome) float64 {
	c := newClient(base)
	defer c.close()
	var prev time.Time
	start := time.Now()
	window, cpu := start, cpuSeconds()
	for n := 1; time.Now().Before(deadline); n++ {
		i := int(l.next.Add(1) - 1)
		out.record(l.httpReport(c, sys, seed, i, truth, &prev))
		if n%ctiWindow == 0 {
			now := time.Now()
			c := cpuSeconds()
			l.windowRate.add(ctiWindow / now.Sub(window).Seconds())
			l.windowCPU.add((c - cpu) * 1000 / ctiWindow)
			window, cpu = now, c
		}
	}
	return time.Since(start).Seconds()
}

func runCTI(cfg config) (*outcome, error) {
	out := &outcome{}
	in := genStore(cfg.seed)
	m := obs.NewMetrics()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	st, layers, err := setupMem(cfg, in, m, tr)
	if err != nil {
		return nil, err
	}
	sys := st.sys
	srv, err := serve(sys, nil, m)
	if err != nil {
		return nil, err
	}
	defer srv.close()

	// Warm-up: the stream's first reports, untimed.
	var warm, load ctiLoad
	wc := newClient(srv.base)
	var prev time.Time
	for i := 0; i < ctiWarmup; i++ {
		out.record(warm.httpReport(wc, sys, cfg.seed, i, in.truth, &prev))
	}
	wc.close()
	load.next.Store(ctiWarmup)

	httpSecs := cfg.seconds
	if cfg.trace {
		httpSecs = cfg.seconds / 2
	}
	gcMeter := startAllocs()
	h0, m0, _ := sys.PlanCacheStats()
	elapsed := load.run(srv.base, sys, cfg.seed, in.truth, time.Now().Add(secs(httpSecs)), out)
	h1, m1, _ := sys.PlanCacheStats()
	ops, posts, windows := load.op.values(), load.post.values(), load.windowRate.values()
	out.printf("cti: %d reports in %.2fs by 1 closed-loop analyst; mean %.4f reports/s; plan cache %d hits, %d misses",
		load.done.Load(), elapsed, float64(load.done.Load())/elapsed, h1-h0, m1-m0)
	if !cfg.trace {
		reportE2E(out, st, e2e{
			op:           "cti",
			opSamples:    ops,
			opWindowed:   windowed(ops, ctiWindow, median),
			step:         "cti_hunt",
			stepSamples:  posts,
			stepWindowed: windowed(posts, ctiWindow, median),
			windows:      fmt.Sprintf("median over %d windows of %d reports of each window's p50", len(windows), ctiWindow),
			rate:         "reports_per_s",
			perSecond:    median(windows),
			rateHow:      fmt.Sprintf("median over %d windows of %d reports", len(windows), ctiWindow),
			cpu:          "report",
			cpuMs:        load.windowCPU.values(),
		})
		return out, nil
	}

	layers["exec.plan_cache_hit_ratio"] = ratio(float64(h1-h0), float64(h1-h0+m1-m0))
	if err := queryCacheRatio(srv.base, layers); err != nil {
		return nil, err
	}
	late := load.late.values()
	layers["loadgen.late_ms_p50"], layers["loadgen.late_ms_max"] = median(late), maxOf(late)

	// Allocation counts: extraction of the stream's first reports, one
	// at a time.
	meter := startAllocs()
	for i := 0; i < ctiWarmup; i++ {
		text, _ := ctiReport(cfg.seed, i)
		sys.ExtractBehavior(text)
	}
	allocs, _, _ := meter.stop()
	layers["extract.allocs_per_report"] = allocs / ctiWarmup

	// Replay: the stream continues in-process, in blocks of ctiCheckGap
	// reports (each holding one attack report), alternately traced and
	// untraced.
	var counters huntCounters
	var tracedMs, untracedMs, untracedHunt []float64
	deadline := time.Now().Add(secs(cfg.seconds / 2))
	for n := 0; n < 2*ctiCheckGap || time.Now().Before(deadline); n++ {
		t := tr
		if (n/ctiCheckGap)%2 == 0 {
			t = nil
		}
		i := int(load.next.Add(1) - 1)
		text, kind := ctiReport(cfg.seed, i)
		req := t.req()
		root := t.begin("op.cti", 0, req)
		start := time.Now()
		src, err := synthesize(t, sys, root, req, text)
		var h *inProcHunt
		if err == nil {
			h, err = huntInProcess(t, sys, root, req, src, false, 1)
		}
		ms := msBetween(start, time.Now())
		t.end(root)
		if err == nil {
			err = checkCTI(h.pages[0], h.cols, kind, in.truth)
		}
		if err != nil {
			out.record(fmt.Errorf("replayed report %d: %w", i, err))
			continue
		}
		out.record(nil)
		if t == nil {
			untracedMs = append(untracedMs, ms)
			untracedHunt = append(untracedHunt, h.firstMs)
		} else {
			tracedMs = append(tracedMs, ms)
			counters.add(h)
		}
	}
	_, _, layers["runtime.gc_cpu_fraction"] = gcMeter.stop()
	counters.fill(layers)
	layers["service.overhead_ms"] = median(posts) - median(untracedHunt)
	layers["tracing.overhead_ratio"] = ratio(mean(tracedMs), mean(untracedMs)) - 1
	out.printf("replay: %d traced and %d untraced in-process reports; service.overhead_ms base: HTTP hunt p50 %.4f ms - in-process hunt p50 %.4f ms",
		len(tracedMs), len(untracedMs), median(posts), median(untracedHunt))
	return out, finishTrace(out, cfg, tr, layers)
}
