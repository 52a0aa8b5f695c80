// Command perfbench is the repository's end-to-end benchmark: it builds a
// threatraptor.System behind service.Server, serves it over loopback HTTP
// in-process, and drives one seeded workload against it.
//
//	perfbench --workload hunt|cti|ingest --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics (tracing off in the
// program, daemon defaults otherwise). With --trace 1 it runs a shorter
// HTTP phase and then replays the same seeded operations in-process,
// wrapping each call into a layer's public function in a span; the spans
// give the per-layer metrics and are written to a file under -dir.
//
// Every output the workload produces is checked. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The exit code is non-zero when a check fails or the run cannot start.
// README.md in this directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// config is the command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // working directory for data dirs and span files
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run reports. record is safe for
// concurrent use.
type outcome struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string          // first few failure descriptions
	metrics   map[string]metric // the JSON metrics (end-to-end or per-layer)
	lines     []string          // human-readable report lines
}

// record counts one checked operation; a non-nil err fails it.
func (o *outcome) record(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err == nil {
		return
	}
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, err.Error())
	}
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) printf(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*outcome, error){
	"hunt":   runHunt,
	"cti":    runCTI,
	"ingest": runIngest,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: hunt, cti or ingest")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed generates the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured duration of the run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.dir, "dir", ".bench_build/perfbench", "working directory for data dirs and span files")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", cfg.workload, cfg.seconds, trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%v GOMAXPROCS=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0))
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for _, l := range out.lines {
		fmt.Println(l)
	}
	for _, f := range out.failures {
		fmt.Println("FAILED:", f)
	}
	fmt.Printf("fail_ratio %.6f ratio (%d of %d operations)\n", ratio(float64(out.failed), float64(out.attempted)), out.failed, out.attempted)
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.metrics[n]
		fmt.Printf("metric %-34s %14.6f %s\n", n, m.Value, m.Unit)
	}
	correct := out.failed == 0 && out.attempted > 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, out.attempted, out.failed, out.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(3)
	}
}

// joinLines renders rows compactly for failure messages.
func joinLines(rows [][]string) string {
	var b strings.Builder
	for i, r := range rows {
		if i == 3 {
			fmt.Fprintf(&b, " ... (%d rows)", len(rows))
			break
		}
		b.WriteString("[" + strings.Join(r, " ") + "]")
	}
	return b.String()
}

// msBetween is the milliseconds elapsed from t to u.
func msBetween(t, u time.Time) float64 { return float64(u.Sub(t)) / float64(time.Millisecond) }
