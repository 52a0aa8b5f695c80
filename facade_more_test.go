package threatraptor

import (
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/audit/gen"
)

func TestMultiHostHunt(t *testing.T) {
	sys, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Two hosts: the attack on hostB only.
	wa := gen.Generate(gen.Config{Seed: 1, Host: "hostA", BenignEvents: 500})
	wb := gen.Generate(gen.Config{Seed: 2, Host: "hostB", BenignEvents: 500,
		Attacks: []gen.Attack{{Kind: gen.AttackDataLeakage, At: time.Minute}}})
	if _, err := sys.IngestRecords(wa.Records); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.IngestRecords(wb.Records); err != nil {
		t.Fatal(err)
	}

	// Host-scoped hunt: hostA must be clean, hostB must hit.
	q := `proc p[exename like "%/bin/tar%" && host = "hostA"] read file f["%/etc/passwd%"] as e1
return p`
	res, err := sys.Hunt(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("hostA should be clean: %v", res.Rows)
	}
	q = `proc p[exename like "%/bin/tar%" && host = "hostB"] read file f["%/etc/passwd%"] as e1
return p`
	res, err = sys.Hunt(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("hostB hunt rows = %v", res.Rows)
	}
}

func TestFindEntitiesAndInvestigate(t *testing.T) {
	sys, _ := leakageSystem(t, Options{}, 500)
	passwd := sys.FindEntities("path", "/etc/passwd")
	if len(passwd) != 1 {
		t.Fatalf("FindEntities(path, /etc/passwd) = %d entities", len(passwd))
	}
	if sys.EntityByID(passwd[0].ID) != passwd[0] {
		t.Error("EntityByID disagrees with FindEntities")
	}
	sg := sys.Investigate(passwd[0].ID, TrackOptions{Direction: TrackForward, MaxDepth: 12})
	var hitC2 bool
	for id := range sg.EntityIDs {
		if e := sys.EntityByID(id); e != nil && e.Type == EntityNetConnType && e.DstIP == gen.C2IP {
			hitC2 = true
		}
	}
	if !hitC2 {
		t.Error("forward investigation from /etc/passwd should reach the C2 connection")
	}
	if len(sys.FindEntities("nosuch", "x")) != 0 {
		t.Error("unknown attribute should match nothing")
	}
}

func TestExplainFacade(t *testing.T) {
	sys, _ := leakageSystem(t, Options{}, 0)
	q, err := sys.ParseQuery(`proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as e1
proc p write file g as e2
return p, f, g`)
	if err != nil {
		t.Fatal(err)
	}
	eps, err := sys.Explain(nil, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 2 {
		t.Fatalf("explained %d patterns", len(eps))
	}
	// e1 (two filters) outscores e2 (none) and is scheduled first.
	if eps[0].Name != "e1" || eps[0].Score <= eps[1].Score {
		t.Errorf("schedule order wrong: %+v", eps)
	}
}

func TestHuntAcrossIncrementalBatchesTemporal(t *testing.T) {
	// Events arriving in two batches must still satisfy cross-batch
	// temporal relations.
	sys, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	batch1 := []Record{{
		StartNS: 100, EndNS: 110, Host: "h", PID: 1, Exe: "/bin/tar",
		Op: audit.OpRead, ObjType: audit.EntityFile, ObjSpec: "/etc/passwd", Amount: 10,
	}}
	batch2 := []Record{{
		StartNS: 200, EndNS: 210, Host: "h", PID: 1, Exe: "/bin/tar",
		Op: audit.OpWrite, ObjType: audit.EntityFile, ObjSpec: "/tmp/out", Amount: 10,
	}}
	if _, err := sys.IngestRecords(batch1); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.IngestRecords(batch2); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Hunt(`proc p["%/bin/tar%"] read file f as e1
proc p write file g as e2
with e1 before e2
return p, f, g`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("cross-batch hunt rows = %v", res.Rows)
	}
}
