package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/audit/gen"
	"repro/internal/extract"
	"repro/internal/obs"
	"repro/internal/service"
)

// The hunt workload: warm analyst hunting. One closed-loop client, on
// one connection, cycles through a fixed set of 16 TBQL hunts — few
// enough to stay in the 256-entry plan and query caches — so fetch,
// join, projection, encoding and the cursor registry do the work.

// huntSpec is one hunt of the fixed set.
type huntSpec struct {
	name     string
	idx      int // position in the set
	text     string
	noCursor bool // page-capped: one page, the bound pushed into the fetch
	pages    int  // pages read before the cursor is closed
	// attack, when set, marks a CTI-synthesized attack hunt whose rows
	// must be exactly the injected chains on hosts.
	attack gen.AttackKind
	hosts  []string
}

// attackReports are the paper's two CTI reports, one per scripted
// attack.
var attackReports = []struct {
	kind gen.AttackKind
	text string
}{
	{gen.AttackDataLeakage, extract.Fig2Text},
	{gen.AttackPasswordCrack, extract.PasswordCrackText},
}

// synthesize runs the paper's front half — report text to behavior graph
// to TBQL — and adds the first process's host to the returned columns,
// so results can be checked per host.
func synthesize(tr *tracer, sys *threatraptor.System, parent, req int64, text string) (string, error) {
	sp := tr.begin("extract.extract", parent, req)
	g := sys.ExtractBehavior(text)
	tr.end(sp)
	sp = tr.begin("synth.synthesize", parent, req)
	q, _, err := sys.SynthesizeQuery(g, nil)
	tr.end(sp)
	if err != nil {
		return "", err
	}
	return withHostColumn(q.String()), nil
}

// withHostColumn returns src with p1.host as its first result column
// (src unchanged when it has no process p1).
func withHostColumn(src string) string {
	i := strings.LastIndex(src, "\nreturn ")
	if i < 0 || !strings.Contains(src, "proc p1") {
		return src
	}
	j := i + len("\nreturn ")
	if strings.HasPrefix(src[j:], "distinct ") {
		j += len("distinct ")
	}
	return src[:j] + "p1.host, " + src[j:]
}

// huntSpecs builds the fixed set from the two synthesized attack hunts;
// the seed picks the pinned hosts.
func huntSpecs(seed int64, attacks []string) ([]huntSpec, error) {
	rng := rand.New(rand.NewSource(seed + 1))
	pick := func() string { return hostName(rng.Intn(numHosts)) }
	var specs []huntSpec
	for i, a := range attackReports {
		h := pick()
		pinned := strings.Replace(attacks[i], "proc p1[", `proc p1[host = "`+h+`" and `, 1)
		if pinned == attacks[i] {
			return nil, fmt.Errorf("synthesized %v hunt has no filter on p1 to pin", a.kind)
		}
		specs = append(specs,
			huntSpec{name: a.kind.String(), text: attacks[i], pages: 1, attack: a.kind, hosts: allHosts()},
			huntSpec{name: a.kind.String() + "@" + h, text: pinned, pages: 1, attack: a.kind, hosts: []string{h}})
	}
	h1, h2, h3, h4 := pick(), pick(), pick(), pick()
	specs = append(specs,
		// Single-pattern scans paged through three pages.
		huntSpec{name: "passwd-readers", pages: 3, text: `proc p read file f["%/etc/passwd%"] as e1
return p.host, p, f`},
		huntSpec{name: "passwd-readers@" + h1, pages: 3, text: `proc p[host = "` + h1 + `"] read file f["%/etc/passwd%"] as e1
return p.pid, p, f`},
		huntSpec{name: "sshd-accepts", pages: 3, text: `proc p["%sshd%"] accept ip i as e1
return p.host, p.pid, i`},
		// Page-capped scans: one page, no cursor.
		huntSpec{name: "chrome-writes", pages: 1, noCursor: true, text: `proc p["%chrome%"] write file f as e1
return p.host, p.pid, f`},
		huntSpec{name: "reads@" + h2, pages: 1, noCursor: true, text: `proc p[host = "` + h2 + `"] read file f as e1
return p.pid, p, f`},
		huntSpec{name: "apt-connects", pages: 1, noCursor: true, text: `proc p["%/usr/bin/apt%"] connect ip i as e1
return p.host, p.pid, i`},
		// Two- and three-pattern joins.
		huntSpec{name: "passwd-then-shadow", pages: 3, text: `proc p read file f1["%/etc/passwd%"] as e1
proc p read file f2["%/etc/shadow%"] as e2
with e1 before e2
return p.host, p.pid, f1, f2`},
		huntSpec{name: "passwd-then-shadow@" + h3, pages: 3, text: `proc p[host = "` + h3 + `"] read file f1["%/etc/passwd%"] as e1
proc p read file f2["%/etc/shadow%"] as e2
with e1 before e2
return p.pid, f1, f2`},
		huntSpec{name: "build-chain", pages: 3, text: `proc p["%/usr/bin/make%"] fork proc q as e1
proc q read file f as e2
proc q write file g as e3
with e1 before e2, e2 before e3
return p.host, q.pid, f, g`},
		huntSpec{name: "cron-crontab", pages: 3, text: `proc p["%/usr/sbin/cron%"] fork proc q as e1
proc q read file f["%/etc/crontab%"] as e2
with e1 before e2
return p.host, q.pid, f`},
		huntSpec{name: "chrome-connect-write@" + h4, pages: 1, text: `proc p[host = "` + h4 + `" and "%chrome%"] connect ip i as e1
proc p write file f as e2
with e1 before e2
return p.pid, i, f`},
		// One graph path pattern.
		huntSpec{name: "apache-path-passwd", pages: 1, text: `proc p["%/usr/sbin/apache2%"] ~>(1~4)[read] file f["%/etc/passwd%"] as e1
return distinct p, f`},
	)
	for i := range specs {
		specs[i].idx = i
	}
	return specs, nil
}

// huntRef is the expected answer of one hunt: an in-process full drain
// on the static store.
type huntRef struct {
	rows  [][]string // the first pages of the drain
	total int
}

func drainRef(sys *threatraptor.System, src string, keep int) (huntRef, error) {
	q, err := sys.ParseQuery(src)
	if err != nil {
		return huntRef{}, err
	}
	cur, err := sys.HuntQueryCursor(q)
	if err != nil {
		return huntRef{}, err
	}
	defer cur.Close()
	var ref huntRef
	for cur.Next() {
		if ref.total < keep {
			ref.rows = append(ref.rows, cur.Row())
		}
		ref.total++
	}
	return ref, cur.Err()
}

// want returns the rows page p must hold and whether more follow it.
func (r huntRef) want(p int) ([][]string, bool) {
	lo := min(p*pageSize, r.total)
	hi := min(lo+pageSize, r.total)
	return r.rows[lo:hi], r.total > hi
}

// checkRows compares one page with the reference.
func checkRows(got [][]string, ref huntRef, p int) error {
	want, _ := ref.want(p)
	if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
		return fmt.Errorf("page %d: got %d rows %s, want %d rows %s", p, len(got), joinLines(got), len(want), joinLines(want))
	}
	return nil
}

// checkPage checks an HTTP page: rows, count and the more-rows signals.
func checkPage(resp *service.HuntResponse, ref huntRef, p int, noCursor bool) error {
	if err := checkRows(resp.Rows, ref, p); err != nil {
		return err
	}
	_, more := ref.want(p)
	if resp.Count != len(resp.Rows) || (resp.NextOffset != nil) != more || (more && !noCursor && resp.CursorID == "") {
		return fmt.Errorf("page %d: count %d, next_offset set %v, cursor %q; want more=%v", p, resp.Count, resp.NextOffset != nil, resp.CursorID, more)
	}
	return nil
}

// attackValues lists what the ground truth names for one attack on one
// host: process executables, file paths, and remote addresses.
func attackValues(steps []gen.GroundTruthStep, kind gen.AttackKind) map[string]bool {
	v := map[string]bool{}
	for _, s := range steps {
		if s.Attack != kind {
			continue
		}
		v[s.Record.Exe] = true
		spec := s.Record.ObjSpec
		if _, exe, ok := strings.Cut(spec, ":"); ok && !strings.Contains(spec, "->") {
			v[exe] = true // "<pid>:<exe>"
		} else if _, dst, ok := strings.Cut(spec, "->"); ok {
			ip, _, _ := strings.Cut(dst, ":")
			v[ip] = true // "<src>:<port>-><dst>:<port>/<proto>"
		} else {
			v[spec] = true
		}
	}
	return v
}

// checkAttack checks that rows are exactly one chain per host in hosts
// (the host is each row's first column) and that every other value
// appears in that host's ground truth for the attack.
func checkAttack(rows [][]string, kind gen.AttackKind, hosts []string, truth map[string][]gen.GroundTruthStep) error {
	seen := map[string]bool{}
	for _, r := range rows {
		if len(r) < 2 {
			return fmt.Errorf("%v: row %v has no chain", kind, r)
		}
		host := r[0]
		if seen[host] {
			return fmt.Errorf("%v: host %s matched more than once", kind, host)
		}
		seen[host] = true
		vals := attackValues(truth[host], kind)
		for _, x := range r[1:] {
			if !vals[x] {
				return fmt.Errorf("%v: row %v on %s names %q, which the ground truth does not", kind, r, host, x)
			}
		}
	}
	for _, h := range hosts {
		if !seen[h] {
			return fmt.Errorf("%v: no chain found on %s (rows %s)", kind, h, joinLines(rows))
		}
	}
	if len(seen) != len(hosts) {
		return fmt.Errorf("%v: chains on %d hosts, want %d", kind, len(seen), len(hosts))
	}
	return nil
}

// huntLoad collects one HTTP phase of the hunt workload.
type huntLoad struct {
	first, page samples // POST → first page; GET /hunt/next round trip
	// late is the closed-loop generator's lateness: from the client's
	// previous response to its next request, which is due at once.
	late samples
	done atomic.Int64
	// perFirst and perPage hold each hunt's latencies, by index in the
	// set (nil in the warm-up).
	perFirst, perPage []samples
	// passRate and passCPU hold, for each full pass over the set, hunts
	// per second and the process's CPU milliseconds per hunt.
	passRate, passCPU samples
}

// httpHunt runs one hunt over HTTP: the first page, then its planned
// pages through the cursor, then closes a cursor left open. prev holds
// the time of the client's previous response.
func (l *huntLoad) httpHunt(c *client, sp huntSpec, ref huntRef, prev *time.Time) error {
	start := time.Now()
	if !prev.IsZero() {
		l.late.add(msBetween(*prev, start))
	}
	resp, err := c.hunt(sp.text, sp.noCursor)
	*prev = time.Now()
	if err != nil {
		return fmt.Errorf("%s: %w", sp.name, err)
	}
	l.first.add(msBetween(start, *prev))
	if l.perFirst != nil {
		l.perFirst[sp.idx].add(msBetween(start, *prev))
	}
	if err := checkPage(resp, ref, 0, sp.noCursor); err != nil {
		return fmt.Errorf("%s: %w", sp.name, err)
	}
	cursor := resp.CursorID
	for p := 1; p < sp.pages && cursor != ""; p++ {
		t := time.Now()
		resp, err = c.next(cursor)
		*prev = time.Now()
		if err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		l.page.add(msBetween(t, *prev))
		if l.perPage != nil {
			l.perPage[sp.idx].add(msBetween(t, *prev))
		}
		if err := checkPage(resp, ref, p, false); err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		cursor = resp.CursorID
	}
	if cursor != "" {
		err := c.closeCursor(cursor)
		*prev = time.Now()
		if err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
	}
	l.done.Add(1)
	return nil
}

// run drives one closed-loop client, on one connection, from a seeded
// offset in the cycle until deadline, and returns the elapsed seconds.
// One client leaves the second core to the runtime and the server's
// per-shard fetches, so the timings measure the program and not the
// scheduler of a 2-core machine.
func (l *huntLoad) run(base string, specs []huntSpec, refs []huntRef, offset int, deadline time.Time, out *outcome) float64 {
	c := newClient(base)
	defer c.close()
	var prev time.Time
	start := time.Now()
	pass, cpu := start, cpuSeconds()
	for i := 0; time.Now().Before(deadline); i++ {
		j := (offset + i) % len(specs)
		out.record(l.httpHunt(c, specs[j], refs[j], &prev))
		if (i+1)%len(specs) == 0 {
			now := time.Now()
			c := cpuSeconds()
			l.passRate.add(float64(len(specs)) / now.Sub(pass).Seconds())
			l.passCPU.add((c - cpu) * 1000 / float64(len(specs)))
			pass, cpu = now, c
		}
	}
	return time.Since(start).Seconds()
}

// replayHunt runs sp in-process under one root span and checks its pages
// against ref. It returns the hunt and its wall time in milliseconds.
func replayHunt(t *tracer, sys *threatraptor.System, sp huntSpec, ref huntRef) (*inProcHunt, float64, error) {
	req := t.req()
	root := t.begin("op.hunt", 0, req)
	start := time.Now()
	h, err := huntInProcess(t, sys, root, req, sp.text, sp.noCursor, sp.pages)
	ms := msBetween(start, time.Now())
	t.end(root)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", sp.name, err)
	}
	for p, rows := range h.pages {
		if err := checkRows(rows, ref, p); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", sp.name, err)
		}
	}
	return h, ms, nil
}

func runHunt(cfg config) (*outcome, error) {
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

	// The attack hunts come from the paper's pipeline; their answers are
	// checked against the ground truth, every other page against an
	// in-process drain.
	var attacks []string
	for _, a := range attackReports {
		req := tr.req()
		root := tr.begin("op.synthesize", 0, req)
		src, err := synthesize(tr, sys, root, req, a.text)
		tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("synthesizing the %v hunt: %w", a.kind, err)
		}
		attacks = append(attacks, src)
	}
	specs, err := huntSpecs(cfg.seed, attacks)
	if err != nil {
		return nil, err
	}
	refs := make([]huntRef, len(specs))
	for i, sp := range specs {
		if refs[i], err = drainRef(sys, sp.text, sp.pages*pageSize); err != nil {
			return nil, fmt.Errorf("reference drain of %s: %w", sp.name, err)
		}
		if sp.attack != 0 {
			out.record(checkAttack(refs[i].rows, sp.attack, sp.hosts, in.truth))
		}
	}

	srv, err := serve(sys, nil, m)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	offset := int(uint64(cfg.seed) % uint64(len(specs)))
	// Warm-up: one pass fills the plan and query caches.
	var warm huntLoad
	var prev time.Time
	wc := newClient(srv.base)
	for i := range specs {
		out.record(warm.httpHunt(wc, specs[i], refs[i], &prev))
	}
	wc.close()

	httpSecs := cfg.seconds
	if cfg.trace {
		httpSecs = cfg.seconds / 2
	}
	gcMeter := startAllocs()
	h0, m0, _ := sys.PlanCacheStats()
	load := huntLoad{perFirst: make([]samples, len(specs)), perPage: make([]samples, len(specs))}
	elapsed := load.run(srv.base, specs, refs, offset, time.Now().Add(secs(httpSecs)), out)
	h1, m1, _ := sys.PlanCacheStats()
	first, pages, passes := load.first.values(), load.page.values(), load.passRate.values()
	out.printf("hunt: %d hunts (%d pages via /hunt/next, %d full passes) in %.2fs by 1 closed-loop client over %d hunts; mean %.4f hunts/s",
		load.done.Load(), len(pages), len(passes), elapsed, len(specs), float64(load.done.Load())/elapsed)
	for i, sp := range specs {
		f, p := load.perFirst[i].values(), load.perPage[i].values()
		line := fmt.Sprintf("  %-28s first page p50 %9.4f ms, p90 %9.4f ms, %d samples", sp.name, median(f), quantile(f, 0.9), len(f))
		if len(p) > 0 {
			line += fmt.Sprintf("; next page p50 %7.4f ms, %d samples", median(p), len(p))
		}
		out.printf("%s", line)
	}
	if !cfg.trace {
		// A pass reads every hunt once, so its geometric mean weighs the
		// 1 ms scans and the 120 ms path hunt alike; the warm-up pass
		// gives the number of pages a pass reads.
		pagesPerPass := len(warm.page.values())
		reportE2E(out, st, e2e{
			op:           "hunt",
			opSamples:    first,
			opWindowed:   windowed(first, len(specs), geomean),
			step:         "page",
			stepSamples:  pages,
			stepWindowed: windowed(pages, pagesPerPass, geomean),
			windows: fmt.Sprintf("median over %d passes of the pass's geometric mean; a pass reads %d first pages and %d next pages",
				len(passes), len(specs), pagesPerPass),
			rate:      "hunts_per_s",
			perSecond: median(passes),
			rateHow:   fmt.Sprintf("median over %d passes of %d hunts", len(passes), len(specs)),
			cpu:       "hunt",
			cpuMs:     load.passCPU.values(),
		})
		return out, nil
	}

	layers["exec.plan_cache_hit_ratio"] = ratio(float64(h1-h0), float64(h1-h0+m1-m0))
	if err := queryCacheRatio(srv.base, layers); err != nil {
		return nil, err
	}
	late := load.late.values()
	layers["loadgen.late_ms_p50"], layers["loadgen.late_ms_max"] = median(late), maxOf(late)

	// Allocation counts: a single-client sequential pass over the set.
	meter := startAllocs()
	for i, sp := range specs {
		_, _, err := replayHunt(nil, sys, sp, refs[i])
		out.record(err)
	}
	allocs, bytes, _ := meter.stop()
	layers["exec.allocs_per_hunt"] = allocs / float64(len(specs))
	layers["exec.alloc_bytes_per_hunt"] = bytes / float64(len(specs))

	// Replay: rounds over the set, alternately traced and untraced.
	var counters huntCounters
	var tracedMs, untracedMs, untracedFirst []float64
	deadline := time.Now().Add(secs(cfg.seconds / 2))
	for round := 0; round < 2 || time.Now().Before(deadline); round++ {
		t := tr
		if round%2 == 0 {
			t = nil
		}
		for i, sp := range specs {
			h, ms, err := replayHunt(t, sys, sp, refs[i])
			out.record(err)
			if err != nil {
				continue
			}
			if t == nil {
				untracedMs = append(untracedMs, ms)
				untracedFirst = append(untracedFirst, h.firstMs)
			} else {
				tracedMs = append(tracedMs, ms)
				counters.add(h)
			}
		}
	}
	_, _, layers["runtime.gc_cpu_fraction"] = gcMeter.stop()
	counters.fill(layers)
	layers["service.overhead_ms"] = median(first) - median(untracedFirst)
	layers["tracing.overhead_ratio"] = ratio(mean(tracedMs), mean(untracedMs)) - 1
	out.printf("replay: %d traced and %d untraced in-process hunts; service.overhead_ms base: HTTP first page p50 %.4f ms - in-process first page p50 %.4f ms",
		len(tracedMs), len(untracedMs), median(first), median(untracedFirst))
	return out, finishTrace(out, cfg, tr, layers)
}
