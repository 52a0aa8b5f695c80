package threatraptor

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/audit/gen"
	"repro/internal/extract"
)

func leakageSystem(t testing.TB, opts Options, benign int) (*System, *gen.Workload) {
	t.Helper()
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	w := gen.Generate(gen.Config{
		Seed:         11,
		BenignEvents: benign,
		Attacks:      []gen.Attack{{Kind: gen.AttackDataLeakage, At: 20 * time.Minute}},
	})
	if _, err := sys.IngestRecords(w.Records); err != nil {
		t.Fatal(err)
	}
	return sys, w
}

// huntCursor parses src and opens a cursor over it.
func huntCursor(sys *System, src string) (*Cursor, error) {
	q, err := sys.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return sys.HuntQueryCursor(q)
}

func TestEndToEndFig2(t *testing.T) {
	sys, _ := leakageSystem(t, Options{}, 2000)
	q, res, err := sys.HuntReport(extract.Fig2Text, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Patterns) < 8 {
		t.Errorf("synthesized %d patterns", len(q.Patterns))
	}
	if len(res.Rows) != 1 {
		t.Fatalf("want 1 match, got %d\n%s", len(res.Rows), q.String())
	}
	row := strings.Join(res.Rows[0], " ")
	for _, want := range []string{"/bin/tar", "/etc/passwd", "/usr/bin/curl", "192.168.29.128"} {
		if !strings.Contains(row, want) {
			t.Errorf("result row missing %q: %s", want, row)
		}
	}
}

func TestEndToEndPasswordCrack(t *testing.T) {
	sys, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := gen.Generate(gen.Config{
		Seed:         3,
		BenignEvents: 1500,
		Attacks:      []gen.Attack{{Kind: gen.AttackPasswordCrack, At: 10 * time.Minute}},
	})
	if _, err := sys.IngestRecords(w.Records); err != nil {
		t.Fatal(err)
	}
	q, res, err := sys.HuntReport(extract.PasswordCrackText, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 1 {
		t.Fatalf("password-crack hunt found nothing\nquery:\n%s", q.String())
	}
	row := strings.Join(res.Rows[0], " ")
	for _, want := range []string{"/tmp/cracker", "/etc/shadow"} {
		if !strings.Contains(row, want) {
			t.Errorf("result row missing %q: %s", want, row)
		}
	}
}

func TestIngestLogsStream(t *testing.T) {
	sys, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := gen.Generate(gen.Config{Seed: 2, BenignEvents: 300})
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	stats, err := sys.IngestLogs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if stats.EventsIn != len(w.Records) || stats.EventsStored != stats.EventsIn {
		t.Errorf("stats = %+v", stats)
	}
	if sys.NumEvents() != stats.EventsStored || sys.NumEntities() == 0 {
		t.Errorf("counters wrong: %d events, %d entities", sys.NumEvents(), sys.NumEntities())
	}
}

func TestIngestWithCPR(t *testing.T) {
	sys, err := New(Options{CPR: true})
	if err != nil {
		t.Fatal(err)
	}
	// A burst of identical writes reduces to one event.
	var recs []Record
	for i := int64(0); i < 50; i++ {
		recs = append(recs, Record{
			StartNS: i * 10, EndNS: i*10 + 5, Host: "h", PID: 1, Exe: "/bin/dd",
			Op: 2 /* OpWrite */, ObjType: 1 /* file */, ObjSpec: "/tmp/big", Amount: 512,
		})
	}
	stats, err := sys.IngestRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.EventsStored >= stats.EventsIn {
		t.Errorf("CPR did not reduce: %+v", stats)
	}
	if stats.CPRReduction < 10 {
		t.Errorf("reduction factor = %f", stats.CPRReduction)
	}
}

func TestIncrementalIngest(t *testing.T) {
	sys, _ := leakageSystem(t, Options{}, 100)
	before := sys.NumEvents()
	w2 := gen.Generate(gen.Config{Seed: 99, BenignEvents: 100})
	if _, err := sys.IngestRecords(w2.Records); err != nil {
		t.Fatal(err)
	}
	if sys.NumEvents() <= before {
		t.Error("second batch not stored")
	}
	// Hunt still works after incremental load.
	res, err := sys.Hunt(`proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as e1` + "\nreturn p, f")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Error("hunt found nothing after incremental ingest")
	}
}

func TestLenientParsing(t *testing.T) {
	sys, err := New(Options{LenientParsing: true})
	if err != nil {
		t.Fatal(err)
	}
	logs := "garbage\n" +
		"100\t200\th\t1\t/bin/a\tread\tfile\t/x\t1\n"
	stats, err := sys.IngestLogs(strings.NewReader(logs))
	if err != nil {
		t.Fatal(err)
	}
	if stats.EventsStored != 1 || stats.ParseErrors != 1 {
		t.Errorf("stats = %+v", stats)
	}
	strict, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := strict.IngestLogs(strings.NewReader(logs)); err == nil {
		t.Error("strict mode should fail on garbage")
	}
}

func TestStrictIngestAtomic(t *testing.T) {
	sys, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	good := "100\t200\th\t1\t/bin/a\tread\tfile\t/x\t1\n"
	// A malformed line mid-batch must fail the whole batch without
	// interning the valid prefix, so a fixed retry does not duplicate it.
	if _, err := sys.IngestLogs(strings.NewReader(good + "garbage\n" + good)); err == nil {
		t.Fatal("strict mode should fail on garbage")
	}
	if sys.NumEvents() != 0 || sys.NumEntities() != 0 {
		t.Fatalf("failed batch left %d events / %d entities behind",
			sys.NumEvents(), sys.NumEntities())
	}
	stats, err := sys.IngestLogs(strings.NewReader(good + good))
	if err != nil {
		t.Fatal(err)
	}
	if stats.EventsStored != 2 || sys.NumEvents() != 2 {
		t.Errorf("retry stored %d events (stats %+v)", sys.NumEvents(), stats)
	}
}

func TestLenientParseErrorsPerBatch(t *testing.T) {
	sys, err := New(Options{LenientParsing: true})
	if err != nil {
		t.Fatal(err)
	}
	good := "100\t200\th\t1\t/bin/a\tread\tfile\t/x\t1\n"
	stats, err := sys.IngestLogs(strings.NewReader("garbage\n" + good))
	if err != nil || stats.ParseErrors != 1 {
		t.Fatalf("first batch: stats %+v, err %v", stats, err)
	}
	// A clean follow-up batch must report zero errors, not the lifetime
	// total.
	stats, err = sys.IngestLogs(strings.NewReader(good))
	if err != nil || stats.ParseErrors != 0 {
		t.Errorf("clean batch: stats %+v, err %v", stats, err)
	}
}

func TestExtractSynthesizeAPI(t *testing.T) {
	sys, _ := leakageSystem(t, Options{}, 0)
	g := sys.ExtractBehavior(extract.Fig2Text)
	if len(g.Edges) < 8 {
		t.Fatalf("extracted %d edges", len(g.Edges))
	}
	q, rep, err := sys.SynthesizeQuery(g, &SynthPlan{UsePaths: true, PathMin: 1, PathMax: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || len(q.Patterns) < 8 {
		t.Errorf("synth: %d patterns", len(q.Patterns))
	}
	res, err := sys.HuntQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	// Path patterns subsume direct events (1 hop), so the attack matches.
	if len(res.Rows) != 1 {
		t.Errorf("path-plan hunt rows = %d", len(res.Rows))
	}
}

func TestHuntReportNoBehavior(t *testing.T) {
	sys, _ := leakageSystem(t, Options{}, 0)
	if _, _, err := sys.HuntReport("Nothing interesting happened.", nil); err == nil {
		t.Error("report without behaviors should fail synthesis")
	}
}

func TestParseQueryAPI(t *testing.T) {
	sys, _ := leakageSystem(t, Options{}, 0)
	q, err := sys.ParseQuery("proc p read file f as e1\nreturn p")
	if err != nil || q.Info() == nil {
		t.Errorf("ParseQuery: %v", err)
	}
	if _, err := sys.ParseQuery("bogus"); err == nil {
		t.Error("bad query should fail")
	}
}
