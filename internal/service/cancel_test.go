package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

// crossPageTBQL is an unconstrained two-pattern cross product: plenty of
// rows for multi-page cursors, quadratic join work for slow pages.
const crossPageTBQL = `proc p1 read file f1 as evt1
proc p2 write file f2 as evt2
return p1, f1, p2, f2`

// neverTBQL is a contradictory temporal join: the read×write cross
// product is explored but nothing can ever match, so a hunt over it
// does quadratic join work and emits zero rows — the fixture for
// kill-switch and disconnect tests (scaled long by re-ingesting the
// workload until the cross product is seconds of work).
const neverTBQL = `proc p1 read file f1 as evt1
proc p2 write file f2 as evt2
with evt1 before evt2, evt2 before evt1
return p1, p2`

// newCancelServer builds a daemon with lifecycle-governance config over
// an ingested workload.
func newCancelServer(t *testing.T, opts threatraptor.Options, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	sys, err := threatraptor.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithConfig(sys, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	_, _, logs := newTestServer(t) // only for the workload text
	ingestLogs(t, ts, logs)
	return srv, ts
}

func readAllBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestHuntClientGoneBeforeExecution: a request whose client disconnected
// while the body was read never executes.
func TestHuntClientGoneBeforeExecution(t *testing.T) {
	srv, _ := newCancelServer(t, threatraptor.Options{}, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := httptest.NewRequest(http.MethodPost, "/hunt", strings.NewReader(crackTBQL)).WithContext(ctx)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	if got := srv.executions.Load(); got != 0 {
		t.Fatalf("executions = %d after a dead-client hunt, want 0", got)
	}
	if got := srv.huntsCancelled.Load(); got != 1 {
		t.Fatalf("hunts_cancelled = %d, want 1", got)
	}
}

// TestHuntTimeout: -hunt-timeout answers 504 with the partial span
// breakdown and bumps the timed-out counter.
func TestHuntTimeout(t *testing.T) {
	srv, ts := newCancelServer(t, threatraptor.Options{}, Config{HuntTimeout: time.Nanosecond})
	resp, err := http.Post(ts.URL+"/hunt", "text/plain", strings.NewReader(crackTBQL))
	if err != nil {
		t.Fatal(err)
	}
	body := readAllBody(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", resp.StatusCode, body)
	}
	var out struct {
		Error string          `json:"error"`
		Trace json.RawMessage `json:"trace"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad 504 body %q: %v", body, err)
	}
	if !strings.Contains(out.Error, "deadline") {
		t.Errorf("504 error %q does not mention the deadline", out.Error)
	}
	if len(out.Trace) == 0 || !strings.Contains(string(out.Trace), "aborted") {
		t.Errorf("504 body lacks the aborted span breakdown: %s", body)
	}
	if got := srv.huntsTimedOut.Load(); got != 1 {
		t.Errorf("hunts_timed_out = %d, want 1", got)
	}
	// /explain shares the deadline wrap.
	resp, err = http.Get(ts.URL + "/explain?q=" + "proc%20p%20read%20file%20f%20as%20e1%0areturn%20p")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAllBody(t, resp); resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("explain status = %d, want 504: %s", resp.StatusCode, body)
	}
}

// TestHuntJoinBudget: -max-join-rows aborts a runaway join with 422
// naming the budget.
func TestHuntJoinBudget(t *testing.T) {
	srv, ts := newCancelServer(t, threatraptor.Options{MaxJoinRows: 1}, Config{})
	resp, err := http.Post(ts.URL+"/hunt", "text/plain", strings.NewReader(crossPageTBQL))
	if err != nil {
		t.Fatal(err)
	}
	body := readAllBody(t, resp)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422: %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "max-join-rows") {
		t.Errorf("422 body %q does not name the budget", body)
	}
	if got := srv.huntsBudget.Load(); got != 1 {
		t.Errorf("hunts_budget_exceeded = %d, want 1", got)
	}
}

// TestHuntAdmissionShed: beyond -max-hunts, requests shed with 429 and a
// Retry-After hint.
func TestHuntAdmissionShed(t *testing.T) {
	srv, ts := newCancelServer(t, threatraptor.Options{}, Config{MaxHunts: 1})
	// Occupy the single admission slot directly; the next hunt sheds.
	srv.huntSlots <- struct{}{}
	defer func() { <-srv.huntSlots }()
	resp, err := http.Post(ts.URL+"/hunt", "text/plain", strings.NewReader(crackTBQL))
	if err != nil {
		t.Fatal(err)
	}
	body := readAllBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := srv.huntsShed.Load(); got != 1 {
		t.Errorf("hunts_shed = %d, want 1", got)
	}
	// /hunt/next sheds the same way (unknown cursor checked first, so use
	// a registered one).
	<-srv.huntSlots
	hr := postHunt(t, ts, crossPageTBQL, 3, 0)
	if hr.CursorID == "" {
		t.Fatal("fixture hunt registered no cursor")
	}
	srv.huntSlots <- struct{}{}
	resp, err = http.Get(ts.URL + "/hunt/next?cursor=" + hr.CursorID)
	if err != nil {
		t.Fatal(err)
	}
	if body := readAllBody(t, resp); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("hunt/next status = %d, want 429: %s", resp.StatusCode, body)
	}
}

// TestKillSwitch: DELETE /debug/hunts/<request-id> cancels a live hunt;
// the victim answers 503, the killer gets the execution count, and an
// unknown id gets 404.
func TestKillSwitch(t *testing.T) {
	srv, ts := newCancelServer(t, threatraptor.Options{}, Config{})
	// Re-ingest the workload until neverTBQL's read×write cross product
	// is several seconds of join work: ~25k reads × ~30k writes.
	_, _, logs := newTestServer(t)
	for i := 0; i < 60; i++ {
		ingestLogs(t, ts, logs)
	}

	type result struct {
		status int
		body   string
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/hunt", "text/plain", strings.NewReader(neverTBQL))
		if err != nil {
			done <- result{status: -1, body: err.Error()}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		done <- result{status: resp.StatusCode, body: string(b)}
	}()

	// Find the victim's request id via the debug listing.
	var rid string
	deadline := time.Now().Add(10 * time.Second)
	for rid == "" {
		if time.Now().After(deadline) {
			t.Fatal("hunt never appeared in /debug/hunts")
		}
		resp, err := http.Get(ts.URL + "/debug/hunts")
		if err != nil {
			t.Fatal(err)
		}
		var dbg DebugHuntsResponse
		decodeJSON(t, resp, &dbg)
		for _, h := range dbg.InFlight {
			if h.Kind == "hunt" {
				rid = h.RequestID
			}
		}
		time.Sleep(2 * time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/debug/hunts/"+rid, nil)
	killStart := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := readAllBody(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, rid) {
		t.Fatalf("kill response %d: %s", resp.StatusCode, body)
	}

	select {
	case r := <-done:
		if r.status != http.StatusServiceUnavailable {
			t.Fatalf("killed hunt answered %d: %s", r.status, r.body)
		}
		if !strings.Contains(r.body, "killed") {
			t.Errorf("killed hunt body %q does not say why", r.body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("killed hunt never answered")
	}
	if lag := time.Since(killStart); lag > 5*time.Second {
		t.Errorf("kill took %s to take effect", lag)
	}
	if got := srv.huntsKilled.Load(); got != 1 {
		t.Errorf("hunts_killed = %d, want 1", got)
	}

	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/debug/hunts/nonesuch", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if body := readAllBody(t, resp); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown kill id answered %d: %s", resp.StatusCode, body)
	}
}

// TestCursorPageCancelledResumes: a /hunt/next whose request context is
// already dead answers 499 and leaves the cursor resumable — the retry
// serves exactly the rows the interrupted page would have, no loss, no
// duplication.
func TestCursorPageCancelledResumes(t *testing.T) {
	srv, ts := newCancelServer(t, threatraptor.Options{}, Config{})

	// Reference prefix, then a paged run with an interrupted page in the
	// middle; the paged rows must reproduce the prefix exactly.
	const refLen = 24
	ref := postHunt(t, ts, crossPageTBQL, refLen, 0)
	if len(ref.Rows) != refLen {
		t.Fatalf("fixture produced %d rows, want %d", len(ref.Rows), refLen)
	}
	first := postHunt(t, ts, crossPageTBQL, 4, 0)
	if first.CursorID == "" {
		t.Fatal("no cursor registered")
	}
	got := append([][]string{}, first.Rows...)

	// Interrupted page: dead request context.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := httptest.NewRequest(http.MethodGet, "/hunt/next?cursor="+first.CursorID+"&limit=4", nil).WithContext(ctx)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	if w.Code != statusClientClosedRequest {
		t.Fatalf("interrupted page answered %d: %s", w.Code, w.Body.String())
	}
	if got := srv.huntsCancelled.Load(); got == 0 {
		t.Error("hunts_cancelled did not count the interrupted page")
	}

	// Retry: pages continue from where the interrupt stopped them; the
	// union must equal the reference prefix with no loss or duplication.
	for len(got) < refLen {
		resp, err := http.Get(ts.URL + "/hunt/next?cursor=" + first.CursorID + "&limit=4")
		if err != nil {
			t.Fatal(err)
		}
		var page HuntResponse
		decodeJSON(t, resp, &page)
		if page.Offset != len(got) {
			t.Fatalf("page offset %d, want %d (rows lost or repeated)", page.Offset, len(got))
		}
		if page.CursorID == "" {
			t.Fatalf("cursor exhausted at %d rows", len(got)+len(page.Rows))
		}
		got = append(got, page.Rows...)
	}
	for i := range ref.Rows {
		if strings.Join(got[i], "\x00") != strings.Join(ref.Rows[i], "\x00") {
			t.Fatalf("row %d diverged: %v != %v", i, got[i], ref.Rows[i])
		}
	}
}

// TestEvictionCancelsInflightPage: closeAll fires the victim's page
// cancel hook with errCursorEvicted before taking the entry lock.
func TestEvictionCancelsInflightPage(t *testing.T) {
	srv, ts := newCancelServer(t, threatraptor.Options{}, Config{})
	hr := postHunt(t, ts, crossPageTBQL, 2, 0)
	if hr.CursorID == "" {
		t.Fatal("no cursor registered")
	}
	e := srv.cursors.acquire(hr.CursorID)
	if e == nil {
		t.Fatal("cursor not acquirable")
	}
	ctx, kill := context.WithCancelCause(context.Background())
	e.setPageCancel(kill)
	defer e.setPageCancel(nil)

	srv.cursors.closeAll([]*cursorEntry{e})
	select {
	case <-ctx.Done():
	default:
		t.Fatal("eviction did not fire the page cancel hook")
	}
	if cause := context.Cause(ctx); !errors.Is(cause, errCursorEvicted) {
		t.Fatalf("cancel cause = %v, want errCursorEvicted", cause)
	}
}

// TestServerCloseAbortsWebhookBackoff: a webhook pump parked in its
// retry backoff against a dead sink exits promptly when the server
// closes, instead of sleeping out the backoff.
func TestServerCloseAbortsWebhookBackoff(t *testing.T) {
	sys, err := threatraptor.New(threatraptor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithConfig(sys, Config{WebhookBackoff: time.Minute})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	_, _, logs := newTestServer(t)
	ingestLogs(t, ts, logs)

	// 127.0.0.1:1 refuses connections immediately, so the pump reaches
	// its first one-minute backoff right away.
	registerWatch(t, ts, WatchRequest{Query: crackWatchTBQL, Webhook: "http://127.0.0.1:1/hook"})
	deadline := time.Now().Add(5 * time.Second)
	for srv.watches.open() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("webhook watch never registered")
		}
		time.Sleep(2 * time.Millisecond)
	}

	closeStart := time.Now()
	srv.Close()
	deadline = time.Now().Add(5 * time.Second)
	for srv.watches.open() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("webhook pump still parked in backoff after Close")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if took := time.Since(closeStart); took > 2*time.Second {
		t.Errorf("pump took %s to exit after Close", took)
	}
}

// TestCancellationStorm hammers the hunt surface with cancelled,
// timed-out, and completed hunts, then proves nothing leaked: every
// epoch pin is released once the cursors are closed or expired, and the
// goroutine count returns to its baseline.
func TestCancellationStorm(t *testing.T) {
	srv, ts := newCancelServer(t, threatraptor.Options{}, Config{})
	client := &http.Client{}

	baselineGoroutines := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(99))
	var mu sync.Mutex
	var cursorIDs []string
	// clientErrors counts requests the client gave up on. A hunt can
	// complete server-side just as its client's timeout fires, so it
	// registers a cursor whose id nobody reads: at most one orphan per
	// such request, reclaimed only by the idle TTL.
	var clientErrors int
	var wg sync.WaitGroup
	for i := 0; i < 120; i++ {
		delay := time.Duration(rng.Intn(2000)) * time.Microsecond
		query := crossPageTBQL
		if i%3 == 0 {
			query = neverTBQL // never completes; only cancellation ends it
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), delay)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost,
				ts.URL+"/hunt", strings.NewReader(query))
			if err != nil {
				return
			}
			resp, err := client.Do(req)
			if err != nil {
				// Cancelled mid-flight: the expected common case.
				mu.Lock()
				clientErrors++
				mu.Unlock()
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				mu.Lock()
				clientErrors++
				mu.Unlock()
				return
			}
			var hr HuntResponse
			if json.Unmarshal(body, &hr) == nil && hr.CursorID != "" {
				mu.Lock()
				cursorIDs = append(cursorIDs, hr.CursorID)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	// Completed hunts legitimately pinned epochs via their cursors; close
	// them all, then nothing may remain pinned.
	for _, id := range cursorIDs {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/hunt/cursor?cursor="+id, nil)
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close()
		}
	}
	// Wait out handlers still finishing requests their clients already
	// abandoned: a handler registers its cursor before it leaves the
	// in-flight set.
	deadline := time.Now().Add(10 * time.Second)
	for {
		srv.inflightMu.Lock()
		n := len(srv.inflight)
		srv.inflightMu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d executions still in flight after the storm", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := srv.cursors.open(); n > clientErrors {
		t.Fatalf("%d cursors still open after closing the known ones; only %d requests errored client-side",
			n, clientErrors)
	}
	// The orphans expire like any idle cursor: once the clock passes the
	// TTL, a sweep must close them and release their pins.
	expired := time.Now().Add(srv.cursors.ttl + time.Minute)
	srv.cursors.now = func() time.Time { return expired }
	srv.cursors.sweep()
	if n := srv.cursors.open(); n != 0 {
		t.Fatalf("%d cursors still open after the storm and a TTL sweep", n)
	}
	if n := srv.cursors.reg.Pinned(); n != 0 {
		t.Fatalf("%d epochs still pinned after the storm — cancellation leaked pins", n)
	}

	// Cancelled requests must not leak goroutines. Allow scheduler noise
	// plus idle keep-alive connections still draining.
	deadline = time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baselineGoroutines+10 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: baseline %d, now %d\n%s",
				baselineGoroutines, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
