package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/audit/gen"
)

const crackTBQL = `proc p["%cracker%"] read file f["%/etc/shadow%"] as e1
return distinct p, f`

// newTestServer builds a daemon over an empty system plus the log text
// of a password-crack workload ready to ingest.
func newTestServer(t testing.TB) (*httptest.Server, *threatraptor.System, string) {
	t.Helper()
	sys, err := threatraptor.New(threatraptor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := gen.Generate(gen.Config{
		Seed:         31,
		BenignEvents: 1200,
		Attacks:      []gen.Attack{{Kind: gen.AttackPasswordCrack, At: 10 * time.Minute}},
	})
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(sys))
	t.Cleanup(ts.Close)
	return ts, sys, buf.String()
}

func decodeJSON(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
}

func postHunt(t *testing.T, ts *httptest.Server, query string, limit, offset int) HuntResponse {
	t.Helper()
	reqBody, _ := json.Marshal(HuntRequest{Query: query, Limit: limit, Offset: offset})
	resp, err := http.Post(ts.URL+"/hunt", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	var hr HuntResponse
	decodeJSON(t, resp, &hr)
	return hr
}

// TestDaemonRoundTrip drives ingest -> hunt -> explain -> stats end to
// end and asserts the acceptance criterion: the daemon's /hunt rows
// equal Result.Rows and the HuntCursor rows for the same query.
func TestDaemonRoundTrip(t *testing.T) {
	ts, sys, logs := newTestServer(t)

	// Ingest the audit log stream.
	resp, err := http.Post(ts.URL+"/ingest", "text/plain", strings.NewReader(logs))
	if err != nil {
		t.Fatal(err)
	}
	var ing IngestResponse
	decodeJSON(t, resp, &ing)
	if ing.EventsStored == 0 || ing.Entities == 0 || ing.ParseErrors != 0 {
		t.Fatalf("ingest response = %+v", ing)
	}
	if sys.NumEvents() != ing.EventsStored {
		t.Errorf("system has %d events, ingest reported %d", sys.NumEvents(), ing.EventsStored)
	}

	// Hunt over HTTP and compare with the in-process result and cursor.
	hr := postHunt(t, ts, crackTBQL, 0, 0)
	if len(hr.Columns) != 2 || hr.Count != len(hr.Rows) || hr.NextOffset != nil {
		t.Fatalf("hunt response shape: %+v", hr)
	}
	if len(hr.Rows) == 0 || !strings.Contains(hr.Rows[0][0], "cracker") {
		t.Fatalf("hunt rows = %v", hr.Rows)
	}
	if hr.Stats.RowsFetched == 0 {
		t.Errorf("hunt stats = %+v", hr.Stats)
	}
	res, err := sys.Hunt(crackTBQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(hr.Rows) {
		t.Fatalf("daemon returned %d rows, Result.Rows has %d", len(hr.Rows), len(res.Rows))
	}
	for i := range res.Rows {
		if strings.Join(res.Rows[i], "\x00") != strings.Join(hr.Rows[i], "\x00") {
			t.Errorf("row %d: daemon %v != Result %v", i, hr.Rows[i], res.Rows[i])
		}
	}
	q, err := sys.ParseQuery(crackTBQL)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := sys.HuntQueryCursor(q)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for i := 0; cur.Next(); i++ {
		if strings.Join(cur.Row(), "\x00") != strings.Join(hr.Rows[i], "\x00") {
			t.Errorf("row %d: cursor %v != daemon %v", i, cur.Row(), hr.Rows[i])
		}
	}

	// Explain via GET with the query URL-encoded.
	var exp struct {
		Patterns []ExplainedPattern `json:"patterns"`
	}
	resp, err = http.Get(ts.URL + "/explain?q=" + url.QueryEscape(crackTBQL))
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, resp, &exp)
	if len(exp.Patterns) != 1 || exp.Patterns[0].Backend != "sql" || exp.Patterns[0].DataQuery == "" {
		t.Errorf("explain = %+v", exp)
	}

	// Stats reflect the traffic so far.
	var st StatsResponse
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, resp, &st)
	if st.Events != ing.EventsStored || st.Ingests != 1 || st.Hunts != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.GraphEdges != st.Events {
		t.Errorf("graph edges = %d, events = %d", st.GraphEdges, st.Events)
	}
}

// TestDaemonPagination pages a many-row hunt through the cursor-backed
// endpoint and checks the pages reassemble the full result exactly.
func TestDaemonPagination(t *testing.T) {
	ts, sys, logs := newTestServer(t)
	if _, err := sys.IngestLogs(strings.NewReader(logs)); err != nil {
		t.Fatal(err)
	}
	// Non-distinct, unfiltered: every read event is its own row, so the
	// result spans many pages.
	query := `proc p read file f as e1
return p, f`
	res, err := sys.Hunt(query)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 100 {
		t.Fatalf("fixture too small for pagination: %d rows", len(res.Rows))
	}

	var pages [][]string
	offset, limit := 0, 40
	for page := 0; ; page++ {
		if page > len(res.Rows) {
			t.Fatal("pagination did not terminate")
		}
		hr := postHunt(t, ts, query, limit, offset)
		if hr.Offset != offset || hr.Count != len(hr.Rows) {
			t.Fatalf("page %d shape: %+v", page, hr)
		}
		pages = append(pages, hr.Rows...)
		if hr.NextOffset == nil {
			break
		}
		if *hr.NextOffset != offset+len(hr.Rows) {
			t.Fatalf("page %d next_offset = %d, want %d", page, *hr.NextOffset, offset+len(hr.Rows))
		}
		if len(hr.Rows) != limit {
			t.Fatalf("page %d short (%d rows) but next_offset present", page, len(hr.Rows))
		}
		offset = *hr.NextOffset
	}
	if len(pages) != len(res.Rows) {
		t.Fatalf("pages total %d rows, want %d", len(pages), len(res.Rows))
	}
	for i := range pages {
		if strings.Join(pages[i], "\x00") != strings.Join(res.Rows[i], "\x00") {
			t.Errorf("row %d: paged %v != Result %v", i, pages[i], res.Rows[i])
		}
	}

	// An offset past the end yields an empty page with no next_offset.
	tail := postHunt(t, ts, query, limit, len(res.Rows)+10)
	if tail.Count != 0 || tail.NextOffset != nil {
		t.Errorf("past-the-end page = %+v", tail)
	}
}

// TestDaemonErrors covers the failure surface: bad methods, empty and
// malformed queries, bad pagination parameters, and strict-mode ingest
// failures.
func TestDaemonErrors(t *testing.T) {
	ts, _, _ := newTestServer(t)
	check := func(resp *http.Response, err error, want int) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			t.Errorf("status = %d, want %d (%s)", resp.StatusCode, want, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("error body %q not {\"error\": ...}", body)
		}
	}

	resp, err := http.Get(ts.URL + "/ingest")
	check(resp, err, http.StatusMethodNotAllowed)

	resp, err = http.Post(ts.URL+"/ingest", "text/plain", strings.NewReader("not an audit log\n"))
	check(resp, err, http.StatusBadRequest)

	resp, err = http.Get(ts.URL + "/hunt")
	check(resp, err, http.StatusMethodNotAllowed)

	resp, err = http.Post(ts.URL+"/hunt", "text/plain", strings.NewReader(""))
	check(resp, err, http.StatusBadRequest)

	resp, err = http.Post(ts.URL+"/hunt", "text/plain", strings.NewReader("bogus query"))
	check(resp, err, http.StatusBadRequest)

	resp, err = http.Post(ts.URL+"/hunt", "application/json", strings.NewReader("{broken"))
	check(resp, err, http.StatusBadRequest)

	resp, err = http.Post(ts.URL+"/hunt?limit=-1", "text/plain", strings.NewReader(crackTBQL))
	check(resp, err, http.StatusBadRequest)

	resp, err = http.Post(ts.URL+"/hunt?offset=nope", "text/plain", strings.NewReader(crackTBQL))
	check(resp, err, http.StatusBadRequest)

	resp, err = http.Get(ts.URL + "/explain")
	check(resp, err, http.StatusBadRequest)

	resp, err = http.Get(ts.URL + "/explain?q=bogus")
	check(resp, err, http.StatusBadRequest)

	resp, err = http.Post(ts.URL+"/stats", "text/plain", strings.NewReader(""))
	check(resp, err, http.StatusMethodNotAllowed)
}

// TestDaemonIngestBackpressure fills the ingest semaphore and checks
// the daemon sheds the next batch with 429 instead of buffering it,
// then recovers once a slot frees up.
func TestDaemonIngestBackpressure(t *testing.T) {
	sys, err := threatraptor.New(threatraptor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sys)
	for i := 0; i < MaxConcurrentIngests; i++ {
		srv.ingestSlots <- struct{}{}
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	good := "100\t200\th\t1\t/bin/a\tread\tfile\t/x\t1\n"
	resp, err := http.Post(ts.URL+"/ingest", "text/plain", strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated ingest: status %d (%s)", resp.StatusCode, body)
	}

	<-srv.ingestSlots // free one slot
	resp, err = http.Post(ts.URL+"/ingest", "text/plain", strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	var ing IngestResponse
	decodeJSON(t, resp, &ing)
	if ing.EventsStored != 1 {
		t.Errorf("recovered ingest stored %d events", ing.EventsStored)
	}
}

// TestDaemonConcurrentClients hammers the daemon with parallel ingest,
// hunt, and stats clients — the service-level slice of the race suite.
func TestDaemonConcurrentClients(t *testing.T) {
	ts, _, logs := newTestServer(t)

	// Seed the attack so hunts always have a hit.
	resp, err := http.Post(ts.URL+"/ingest", "text/plain", strings.NewReader(logs))
	if err != nil {
		t.Fatal(err)
	}
	var ing IngestResponse
	decodeJSON(t, resp, &ing)

	var wg sync.WaitGroup
	errs := make(chan error, 64)

	// Ingest clients streaming extra benign batches.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				w := gen.Generate(gen.Config{Seed: int64(200 + c*10 + i), BenignEvents: 200})
				var buf bytes.Buffer
				if _, err := w.WriteTo(&buf); err != nil {
					errs <- err
					return
				}
				resp, err := http.Post(ts.URL+"/ingest", "text/plain", &buf)
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("ingest client %d: status %d", c, resp.StatusCode)
					return
				}
			}
		}(c)
	}

	// Hunt clients, mixing full and paginated reads.
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				limit := 0
				if c%2 == 0 {
					limit = 2
				}
				reqBody, _ := json.Marshal(HuntRequest{Query: crackTBQL, Limit: limit})
				resp, err := http.Post(ts.URL+"/hunt", "application/json", bytes.NewReader(reqBody))
				if err != nil {
					errs <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("hunt client %d: status %d: %s", c, resp.StatusCode, body)
					return
				}
				var hr HuntResponse
				if err := json.Unmarshal(body, &hr); err != nil {
					errs <- err
					return
				}
				if len(hr.Rows) == 0 {
					errs <- fmt.Errorf("hunt client %d: attack disappeared", c)
					return
				}
			}
		}(c)
	}

	// A stats poller.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			resp, err := http.Get(ts.URL + "/stats")
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("stats: status %d", resp.StatusCode)
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	var st StatsResponse
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, resp, &st)
	if st.Ingests != 9 || st.Hunts != 24 {
		t.Errorf("counters = %d ingests / %d hunts, want 9 / 24", st.Ingests, st.Hunts)
	}
	if st.Events <= ing.EventsStored {
		t.Errorf("events = %d, want > %d after concurrent ingest", st.Events, ing.EventsStored)
	}
}

// TestPropagationSkipStats: hunts that hit the engine's propagation cap
// must surface the skip count in the hunt response and accumulate it in
// GET /stats, and /explain must name the variables that would have been
// propagated.
func TestPropagationSkipStats(t *testing.T) {
	// Cap the IN-list at 1 so the crack hunt's shared variables exceed it.
	sys, err := threatraptor.New(threatraptor.Options{MaxPropagatedIDs: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := gen.Generate(gen.Config{
		Seed:         31,
		BenignEvents: 1200,
		Attacks:      []gen.Attack{{Kind: gen.AttackPasswordCrack, At: 10 * time.Minute}},
	})
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(sys))
	t.Cleanup(ts.Close)
	resp, err := http.Post(ts.URL+"/ingest", "text/plain", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	var ir IngestResponse
	decodeJSON(t, resp, &ir)

	// Two patterns sharing p: the second would propagate p's candidates,
	// but every cracker read shares one process, benign reads add more —
	// the set exceeds the cap of 1 and must be skipped.
	q := `proc p read file f["%/etc/shadow%"] as e1
proc p read file f2["%wordlist%"] as e2
return distinct p`
	hr := postHunt(t, ts, q, 10, 0)
	if hr.Stats.PropagationsSkipped == 0 {
		t.Fatalf("hunt stats report no skipped propagations: %+v", hr.Stats)
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sr StatsResponse
	decodeJSON(t, resp, &sr)
	if sr.PropagationsSkipped < int64(hr.Stats.PropagationsSkipped) {
		t.Errorf("/stats propagations_skipped = %d, hunt reported %d",
			sr.PropagationsSkipped, hr.Stats.PropagationsSkipped)
	}

	// Explain names the shared variable on the later-scheduled pattern.
	resp, err = http.Get(ts.URL + "/explain?" + url.Values{"q": {q}}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	var er struct {
		Patterns []ExplainedPattern `json:"patterns"`
	}
	decodeJSON(t, resp, &er)
	if len(er.Patterns) != 2 {
		t.Fatalf("explained %d patterns", len(er.Patterns))
	}
	var propagated []string
	for _, p := range er.Patterns {
		propagated = append(propagated, p.Propagated...)
	}
	if len(propagated) == 0 || propagated[0] != "p" {
		t.Errorf("explain propagated = %v, want the shared variable p", propagated)
	}
}

// TestPlanCacheStats: a repeated hunt resolves its plans from the
// cross-hunt cache — visible per hunt (plan_cache_hits in the response)
// and cumulatively (plan_cache_hits / plan_cache_size in GET /stats).
func TestPlanCacheStats(t *testing.T) {
	ts, _, logs := newTestServer(t)
	resp, err := http.Post(ts.URL+"/ingest", "text/plain", strings.NewReader(logs))
	if err != nil {
		t.Fatal(err)
	}
	var ir IngestResponse
	decodeJSON(t, resp, &ir)

	cold := postHunt(t, ts, crackTBQL, 10, 0)
	if cold.Stats.PlanCacheMisses == 0 || cold.Stats.PlanCacheHits != 0 {
		t.Fatalf("cold hunt plan stats = %+v", cold.Stats)
	}
	warm := postHunt(t, ts, crackTBQL, 10, 0)
	if warm.Stats.PlanCacheHits == 0 || warm.Stats.PlanCacheMisses != 0 {
		t.Fatalf("warm hunt plan stats = %+v", warm.Stats)
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sr StatsResponse
	decodeJSON(t, resp, &sr)
	if sr.PlanCacheHits < int64(warm.Stats.PlanCacheHits) {
		t.Errorf("/stats plan_cache_hits = %d, hunt reported %d", sr.PlanCacheHits, warm.Stats.PlanCacheHits)
	}
	if sr.PlanCacheMisses < int64(cold.Stats.PlanCacheMisses) {
		t.Errorf("/stats plan_cache_misses = %d, hunt reported %d", sr.PlanCacheMisses, cold.Stats.PlanCacheMisses)
	}
	if sr.PlanCacheSize < 1 {
		t.Errorf("/stats plan_cache_size = %d, want >= 1", sr.PlanCacheSize)
	}
}

// TestPlanCacheDisabled: Options.PlanCacheSize < 0 turns caching off —
// every hunt compiles, and all counters stay zero.
func TestPlanCacheDisabled(t *testing.T) {
	sys, err := threatraptor.New(threatraptor.Options{PlanCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(sys))
	t.Cleanup(ts.Close)

	hr := postHunt(t, ts, crackTBQL, 10, 0)
	if hr.Stats.PlanCacheHits != 0 || hr.Stats.PlanCacheMisses != 0 {
		t.Fatalf("disabled cache reported activity: %+v", hr.Stats)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sr StatsResponse
	decodeJSON(t, resp, &sr)
	if sr.PlanCacheHits != 0 || sr.PlanCacheMisses != 0 || sr.PlanCacheSize != 0 {
		t.Errorf("/stats for a disabled cache = hits %d misses %d size %d",
			sr.PlanCacheHits, sr.PlanCacheMisses, sr.PlanCacheSize)
	}
}
