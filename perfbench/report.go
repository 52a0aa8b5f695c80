package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/obs"
)

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// setupMem builds the memory-only store of the hunt and cti workloads.
// The end-to-end run builds it setupRepeats times; the traced run builds
// it once, tracing the preload and counting its allocations.
func setupMem(cfg config, in *storeInput, m *obs.Metrics, tr *tracer) (setupResult, map[string]float64, error) {
	layers := map[string]float64{}
	if !cfg.trace {
		st, err := measureSetup(setupRepeats, func() (built, error) {
			sys, err := newMemSystem(m)
			if err != nil {
				return built{}, err
			}
			return built{sys: sys}, preload(sys, in, nil)
		})
		return st, layers, err
	}
	sys, err := newMemSystem(m)
	if err != nil {
		return setupResult{}, nil, err
	}
	meter := startAllocs()
	if err := preload(sys, in, tr); err != nil {
		return setupResult{}, nil, err
	}
	allocs, _, _ := meter.stop()
	layers["ingest.allocs_per_event"] = allocs / float64(in.events)
	storeLayers(sys, layers)
	return setupResult{built: built{sys: sys}}, layers, nil
}

// storeLayers reports the store's shape per stored event.
func storeLayers(sys *threatraptor.System, v map[string]float64) {
	ev := float64(sys.NumEvents())
	v["audit.entities_per_event"] = ratio(float64(sys.NumEntities()), ev)
	v["store.sketch_entries_per_event"] = ratio(float64(sys.Stats().StatsSketches), ev)
}

// queryCacheRatio reads the server's query-cache counters from /stats.
func queryCacheRatio(base string, v map[string]float64) error {
	c := newClient(base)
	defer c.close()
	st, err := c.stats()
	if err != nil {
		return err
	}
	v["service.query_cache_hit_ratio"] = ratio(float64(st.QueryCacheHits), float64(st.QueryCacheHits+st.QueryCacheMisses))
	return nil
}

// e2e is one workload's end-to-end measurements, with the names the
// workload gives them.
type e2e struct {
	op          string    // the workload's operation latency, e.g. "hunt"
	opSamples   []float64 // milliseconds, in time order
	step        string    // its second latency, e.g. "page"
	stepSamples []float64
	// opWindowed and stepWindowed are the latencies as medians over
	// windows of the run; windows says how they were taken.
	opWindowed, stepWindowed float64
	windows                  string
	rate                     string // its throughput, e.g. "hunts_per_s"
	perSecond                float64
	rateHow                  string    // how perSecond was taken
	cpu                      string    // the unit of work of cpuMs, e.g. "hunt"
	cpuMs                    []float64 // CPU milliseconds per unit, one per window
}

// reportE2E prints the end-to-end measurements under the workload's
// names and sets the JSON metrics, which use names shared by every
// workload. Latencies and rates are printed only: on a shared 2-vCPU
// host they move with the CPU time the host takes from the VM by more
// than the largest bound a metric may have. The process's CPU time per
// operation is the gated cost (README.md, "Steadiness").
func reportE2E(out *outcome, st setupResult, e e2e) {
	cpu := median(e.cpuMs)
	out.printf("setup_s %.4f s (median of %d set-ups: %s)", median(st.times), len(st.times), fmtList(st.times))
	out.printf("heap_bytes_per_event %.2f B (live heap after GC at the end of set-up, over %d events)", st.heapPerEvent, st.events)
	out.printf("cpu_ms_per_%s %.4f ms (median over %d windows of the process's CPU time per %s)", e.cpu, cpu, len(e.cpuMs), e.cpu)
	out.printf("%s_p50_ms %.4f ms (%s)", e.op, e.opWindowed, e.windows)
	out.printf("%s_p50_ms %.4f ms (%s)", e.step, e.stepWindowed, e.windows)
	out.printf("%s %.4f 1/s (%s)", e.rate, e.perSecond, e.rateHow)
	out.printf("whole run: %s p50 %.4f ms, p90 %.4f ms, p99 %.4f ms, %d samples",
		e.op, median(e.opSamples), quantile(e.opSamples, 0.9), quantile(e.opSamples, 0.99), len(e.opSamples))
	out.printf("whole run: %s p50 %.4f ms, p90 %.4f ms, p99 %.4f ms, %d samples",
		e.step, median(e.stepSamples), quantile(e.stepSamples, 0.9), quantile(e.stepSamples, 0.99), len(e.stepSamples))
	out.set("setup_s", median(st.times), "s")
	out.set("heap_bytes_per_event", st.heapPerEvent, "B")
	out.set("cpu_ms_per_op", cpu, "ms")
}

func fmtList(v []float64) string {
	s := ""
	for i, x := range v {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4f", x)
	}
	return s
}
