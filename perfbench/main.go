// Command perfbench is the repository's benchmark. It runs one named
// workload — epoch (merakireport's offline surface), catchup (draining
// an outage backlog into merakid) or steady (open-loop harvest beside
// whole-store queries) — checks the workload's outputs, and prints every
// metric by name and unit. The last line of standard output is one JSON
// object: the end-to-end metrics untraced (-trace 0), or the per-layer
// ledger of a traced run (-trace 1). See README.md for the workloads,
// the metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// endToEnd lists the gated end-to-end metrics, in output order. Every
// workload reports each; README.md gives each one's meaning per
// workload. Tail latencies are printed beside them but not gated: on a
// shared 2-vCPU host their run-to-run spread exceeds any usable bound.
var endToEnd = []string{"setup_s", "job_s", "reports_per_s", "lat_p50_ms", "cpu_ms_per_kreport", "rss_peak_mb"}

// perLayer lists the layer metrics every traced run reports, in output
// order, with their units.
var perLayer = []struct{ name, unit string }{
	{"client.weekly_flows_us", "us"}, {"client.build_meta_us", "us"},
	{"click.push_us", "us"}, {"apps.classify_us", "us"}, {"apps.named_frac", "frac"},
	{"ap.build_report_us", "us"},
	{"telemetry.enqueue_us", "us"}, {"telemetry.enqueue_allocs", "count"},
	{"telemetry.batch_build_us", "us"}, {"telemetry.encode_us", "us"}, {"telemetry.decode_us", "us"},
	{"telemetry.decode_allocs", "count"}, {"telemetry.seal_us", "us"}, {"telemetry.open_us", "us"},
	{"telemetry.wire_bytes_per_report", "B"},
	{"wal.append_us", "us"}, {"wal.bytes_per_report", "B"}, {"wal.fsyncs", "count"},
	{"backend.ingest_us", "us"}, {"backend.ingest_allocs", "count"}, {"backend.durable_ingest_us", "us"},
	{"backend.heap_bytes_per_client", "B"},
	{"backend.save_ms", "ms"}, {"backend.digest_ms", "ms"}, {"backend.checkpoint_ms", "ms"},
	{"backend.snapshot_bytes_per_client", "B"}, {"backend.ingest_stall_max_ms", "ms"},
	{"cluster.snapshot_lines_ms", "ms"}, {"cluster.merge_ms", "ms"},
	{"go.gc_cpu_frac", "frac"}, {"go.alloc_mb", "MB"}, {"go.allocs_m", "M"}, {"go.heap_peak_mb", "MB"},
	{"trace.overhead_frac", "frac"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// out collects a run's printed lines and its JSON result.
type out struct {
	res   result
	fails []string
	// printOnly makes emit print without touching the JSON line: a
	// traced run shows its pass's end-to-end figures, but its JSON line
	// carries the per-layer metrics alone.
	printOnly bool
}

func newOut() *out { return &out{res: result{Metrics: map[string]metric{}}} }

// emit records a metric for the JSON line and prints it. A metric the
// run could not measure is a failure, not a number.
func (o *out) emit(name, unit string, v float64, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		o.fails = append(o.fails, fmt.Sprintf("metric %s was not measured", name))
		v = 0
	}
	if !o.printOnly {
		o.res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	o.line(name, unit, v, note)
}

// line prints a metric that is reported but not part of the JSON line.
func (o *out) line(name, unit string, v float64, note string) {
	fmt.Printf("  %-34s %14.4f %-6s %s\n", name, v, unit, note)
}

// tailNote describes a tail figure's percentile and sample count.
func tailNote(t Tail) string { return fmt.Sprintf("(%s of %d)", t.Label(), t.N) }

func main() {
	workload := flag.String("workload", "", "workload to run: epoch, catchup or steady")
	seed := flag.Uint64("seed", 1, "workload seed; the program sees only inputs generated from it")
	seconds := flag.Float64("seconds", 10, "how long one run measures")
	traced := flag.Int("trace", 0, "1 = traced run: per-layer ledger, spans and tracing overhead")
	merakidBin := flag.String("merakid", ".bench_build/bin/merakid", "merakid binary built from the tree under test")
	refsPath := flag.String("refs", "perfbench/refs/epoch.json", "epoch reference renders")
	workdir := flag.String("workdir", ".bench_build/run", "scratch directory for WAL files, logs and span files")
	childEpoch := flag.Uint64("child-epoch", 0, "internal: run one epoch for this study seed and report it as JSON")
	childSpans := flag.String("child-spans", "", "internal: trace the child epoch and write its spans here")
	record := flag.Int("record-refs", 0, "record reference renders for this many study seeds into -refs, then exit")
	flag.Parse()

	if *childEpoch != 0 {
		if err := runEpochChild(*childEpoch, *childSpans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: epoch child: %v\n", err)
			os.Exit(1)
		}
		return
	}
	reapOnSignal()
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	if *record > 0 {
		if err := recordRefs(self, *refsPath, *record); err != nil {
			fatal(err)
		}
		return
	}
	dir := filepath.Join(*workdir, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d\n", *workload, *seed, *seconds, *traced)
	fmt.Printf("machine: nproc=%d GOMAXPROCS=%d go=%s merakid wal-fsync=interval(100ms) checkpoint=0 transport=loopback TCP on 127.0.0.1 (not a real link)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	o := newOut()
	env := liveEnv{merakid: *merakidBin, dir: dir, seed: *seed, seconds: *seconds, nproc: runtime.NumCPU()}
	switch *workload {
	case "epoch":
		err = epochWorkload(o, self, *refsPath, dir, *seed, *seconds, *traced == 1)
	case "catchup", "steady":
		if _, serr := os.Stat(*merakidBin); serr != nil {
			fatal(fmt.Errorf("merakid binary: %w", serr))
		}
		err = liveWorkload(o, *workload, env, *traced == 1)
	default:
		fatal(fmt.Errorf("unknown workload %q (want epoch, catchup or steady)", *workload))
	}
	killChildren()
	if err != nil {
		os.RemoveAll(dir)
		fatal(err)
	}
	if *traced == 0 {
		for _, m := range endToEnd {
			if _, ok := o.res.Metrics[m]; !ok {
				o.fails = append(o.fails, "end-to-end metric "+m+" missing")
			}
		}
	}
	for _, f := range o.fails {
		fmt.Printf("FAIL %s\n", f)
	}
	o.res.Correct = len(o.fails) == 0 && o.res.Failed == 0
	if o.res.Attempted < 1 {
		o.res.Attempted = 1
		o.res.Correct = false
	}
	fmt.Printf("fail_ratio %.6f (failed %d of %d attempted)\n",
		float64(o.res.Failed)/float64(o.res.Attempted), o.res.Failed, o.res.Attempted)
	b, err := json.Marshal(o.res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !o.res.Correct {
		os.RemoveAll(dir)
		os.Exit(1)
	}
}

func fatal(err error) {
	killChildren()
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// epochWorkload runs epochs in child processes until the run's seconds
// are used (at least two), checking every render against its reference.
// Traced, it runs one untraced and one traced epoch and the ledger.
func epochWorkload(o *out, self, refsPath, dir string, seed uint64, seconds float64, traced bool) error {
	rf, err := loadRefs(refsPath)
	if err != nil {
		return err
	}
	fmt.Printf("epoch: study seeds from a pool of %d recorded seeds, merakireport default scale, wire v1, workers=%d\n",
		len(rf.Seeds), runtime.GOMAXPROCS(0))
	var kids []*epochChild
	var studies []uint64
	spawn := func(study uint64, spanPath string) (*epochChild, error) {
		c, err := spawnEpoch(self, study, spanPath)
		if err != nil {
			return nil, err
		}
		kids = append(kids, c)
		studies = append(studies, study)
		o.res.Attempted += len(c.Sections)
		fails := rf.verify(study, c)
		o.fails = append(o.fails, fails...)
		if len(fails) > 0 {
			o.res.Failed += max(1, len(fails))
		}
		return c, nil
	}
	if traced {
		study := rf.studySeed(seed, 0)
		plain, err := spawn(study, "")
		if err != nil {
			return err
		}
		spanPath := filepath.Join(filepath.Dir(dir), fmt.Sprintf("spans-epoch-%d.jsonl", seed))
		tr, err := spawn(study, spanPath)
		if err != nil {
			return err
		}
		spans, err := readSpanFile(spanPath)
		if err != nil {
			return err
		}
		lg, err := runLedger(study, dir, 64, nil)
		if err != nil {
			return err
		}
		lg["trace.overhead_frac"] = tr.EpochS/plain.EpochS - 1
		g := *tr.Go
		addGo(lg, g)
		fmt.Println("epoch (traced; core layers from the benchmark's spans and the epoch.* histograms):")
		printMap(o, tr.Layers)
		fmt.Printf("tracing overhead: epoch_s traced %.3fs vs untraced %.3fs (%+.1f%%); spans in %s\n",
			tr.EpochS, plain.EpochS, 100*(tr.EpochS/plain.EpochS-1), spanPath)
		printSelf(spans)
		emitLedger(o, lg)
		return nil
	}
	begin := time.Now()
	for i := 0; i < 2 || time.Since(begin).Seconds() < seconds; i++ {
		if _, err := spawn(rf.studySeed(seed, i), ""); err != nil {
			return err
		}
	}
	fmt.Printf("epoch: study seeds %v\n", studies)
	var setup, job, rate, usage, cpu, rss []float64
	for _, c := range kids {
		setup = append(setup, c.SetupS)
		job = append(job, c.EpochS)
		rate = append(rate, float64(c.Reports)/c.EpochS)
		usage = append(usage, (c.UsageS[0]+c.UsageS[1])*1e3)
		cpu = append(cpu, c.CPUS*1e3/float64(c.Reports)*1e3)
		rss = append(rss, float64(c.HWMKB)/1024)
	}
	n := fmt.Sprintf("(median of %d epochs)", len(kids))
	fmt.Println("end-to-end (epoch):")
	o.emit("setup_s", "s", median(setup), n+" generate the study's fleets and clients")
	o.emit("job_s", "s", median(job), n+" epoch_s: NewStudy through the last rendered figure")
	o.emit("reports_per_s", "1/s", median(rate), n+" AP reports the usage epochs harvest, per second of epoch")
	o.emit("lat_p50_ms", "ms", median(usage), n+" harvesting both usage weeks (RunUsageEpochWorkers, 2015 and 2014)")
	t := tail(usage)
	o.line("lat_tail_ms", "ms", t.Value, tailNote(t)+" harvesting both usage weeks")
	o.emit("cpu_ms_per_kreport", "ms", median(cpu), n+" epoch process CPU per 1,000 harvested reports")
	o.emit("rss_peak_mb", "MB", median(rss), n+" VmHWM of the epoch process")
	fmt.Println("issue names:")
	o.line("epoch_s", "s", median(job), n)
	return nil
}

// liveWorkload runs catchup or steady. Traced, it runs the workload
// once untraced and once traced, then the ledger at the observed batch
// size and store.
func liveWorkload(o *out, name string, env liveEnv, traced bool) error {
	run := func(spans *Spans) (*liveResult, error) {
		if name == "catchup" {
			return runCatchup(env, spans)
		}
		return runSteady(env, spans)
	}
	if traced {
		plain, err := run(nil)
		if err != nil {
			return err
		}
		spans := newSpans()
		tr, err := run(spans)
		if err != nil {
			return err
		}
		account(o, plain)
		account(o, tr)
		spanPath := filepath.Join(filepath.Dir(env.dir), fmt.Sprintf("spans-%s-%d.jsonl", name, env.seed))
		if err := writeSpanFile(spanPath, spans.All()); err != nil {
			return err
		}
		lg, err := runLedger(env.seed, env.dir, int(math.Round(tr.batch)), tr.store)
		if err != nil {
			return err
		}
		// Tracing costs the benchmark process time: on catchup it shows
		// as drain rate, on steady (fixed offered rate) as agent-side CPU.
		what, base, with := "reports_per_s", 1/median(plain.rateS), 1/median(tr.rateS)
		if name == "steady" {
			what, base, with = "agent.cpu_ms_per_kreport", median(plain.agentCPUPer), median(tr.agentCPUPer)
		}
		lg["trace.overhead_frac"] = with/base - 1
		addGo(lg, tr.goStats)
		fmt.Println(name + " (traced; agent side and merakid's metrics query):")
		liveLayers(o, name, tr)
		fmt.Printf("tracing overhead: %s traced vs untraced %+.1f%% per report; spans in %s\n",
			what, 100*(with/base-1), spanPath)
		printSelf(spans.All())
		emitLedger(o, lg)
		return nil
	}
	res, err := run(nil)
	if err != nil {
		return err
	}
	account(o, res)
	liveEndToEnd(o, name, res)
	return nil
}

func account(o *out, r *liveResult) {
	o.res.Attempted += r.attempted
	o.res.Failed += r.failed
	o.fails = append(o.fails, r.fails...)
}

func liveEndToEnd(o *out, name string, r *liveResult) {
	ack, dl := tail(r.ack), tail(r.delivery)
	if name == "catchup" {
		n := fmt.Sprintf("(median of %d outages)", len(r.jobS))
		fmt.Println("end-to-end (catchup):")
		o.emit("setup_s", "s", median(r.setupS), n+" stream generation, merakid boot, backlog enqueue")
		o.emit("job_s", "s", median(r.jobS), n+fmt.Sprintf(" catch-up time: reconnect to last ack of %d windows", catchupWindows))
		o.emit("reports_per_s", "1/s", median(r.rateS), n+" acked reports per second of drain")
		o.emit("lat_p50_ms", "ms", median(r.ack), fmt.Sprintf("(median of %d rounds) ack: batch write to ack arrival", len(r.ack)))
		o.line("lat_tail_ms", "ms", ack.Value, tailNote(ack)+" ack")
		o.emit("cpu_ms_per_kreport", "ms", median(r.cpuPerK), n+" merakid user+sys CPU per 1,000 acked reports")
		o.emit("rss_peak_mb", "MB", median(r.rssMB), n+" merakid VmHWM")
		fmt.Println("issue names:")
		o.line("ack_p50_ms", "ms", median(r.ack), fmt.Sprintf("(%d rounds)", len(r.ack)))
		o.line("ack_"+ack.Label()+"_ms", "ms", ack.Value, tailNote(ack))
		o.line("delivery_p50_ms", "ms", median(r.delivery), fmt.Sprintf("(%d reports, from reconnect)", len(r.delivery)))
		o.line("delivery_"+dl.Label()+"_ms", "ms", dl.Value, tailNote(dl))
		return
	}
	n := fmt.Sprintf("(median of %d set-ups)", len(r.setupS))
	fmt.Println("end-to-end (steady):")
	o.emit("setup_s", "s", median(r.setupS), n+" stream generation, merakid boot, one window preloaded")
	o.emit("job_s", "s", median(r.jobS), "operator read cycle: median checkpoint + digest + merged digest, one query every 2s")
	o.emit("reports_per_s", "1/s", median(r.rateS), fmt.Sprintf("acked in the timed phase at %.0f/s offered", steadyRate))
	o.emit("lat_p50_ms", "ms", median(r.delivery), fmt.Sprintf("(median of %d reports) delivery: due time to the ack that covers it", len(r.delivery)))
	o.line("lat_tail_ms", "ms", dl.Value, tailNote(dl)+" delivery; reports due during a whole-store read wait it out")
	o.emit("cpu_ms_per_kreport", "ms", median(r.cpuPerK), "merakid user+sys CPU per 1,000 acked reports")
	o.emit("rss_peak_mb", "MB", median(r.rssMB), "merakid VmHWM")
	fmt.Println("issue names:")
	o.line("ack_p50_ms", "ms", median(r.ack), fmt.Sprintf("(%d rounds with reports)", len(r.ack)))
	o.line("ack_"+ack.Label()+"_ms", "ms", ack.Value, tailNote(ack))
	o.line("delivery_p50_ms", "ms", median(r.delivery), fmt.Sprintf("(%d reports)", len(r.delivery)))
	if dl.P > 99 {
		o.line("delivery_p99_ms", "ms", percentile(r.delivery, 99), fmt.Sprintf("(%d reports)", len(r.delivery)))
	}
	o.line("delivery_"+dl.Label()+"_ms", "ms", dl.Value, tailNote(dl))
	for _, q := range []string{"checkpoint", "digest", "merged_digest"} {
		o.line(q+"_p50_ms", "ms", median(r.queries[q]), fmt.Sprintf("(%d queries)", len(r.queries[q])))
	}
	late := tail(r.lateMS)
	o.line("gen.late_"+late.Label()+"_ms", "ms", late.Value, tailNote(late)+" load generator behind schedule")
}

// liveLayers prints the layer figures only a live pass has: the agent
// side, the load generator, and merakid's own histograms.
func liveLayers(o *out, name string, r *liveResult) {
	o.printOnly = true
	liveEndToEnd(o, name, r)
	o.printOnly = false
	o.line("telemetry.reports_per_round", "count", median(r.perRound), fmt.Sprintf("(median of %d rounds)", len(r.perRound)))
	o.line("telemetry.queue_depth_max", "count", float64(r.queueMax), "")
	o.line("agent.cpu_ms_per_kreport", "ms", median(r.agentCPUPer), "benchmark process (agents, generator) CPU")
	d := r.daemon
	o.line("merakid.poll_p50_us", "us", d["harvest.poll_us.p50"], "(bucket bound)")
	o.line("merakid.poll_p99_us", "us", d["harvest.poll_us.p99"], "(bucket bound)")
	o.line("merakid.checkpoint_p99_ms", "ms", d["checkpoint.duration_us.p99"]/1e3, fmt.Sprintf("(bucket bound, %g checkpoints)", d["checkpoint.duration_us.count"]))
	o.line("merakid.gc_pause_p99_ms", "ms", d["proc.gc_pause_p99_us"]/1e3, "")
	o.line("merakid.heap_mb", "MB", d["proc.heap_inuse_bytes"]/(1<<20), "")
	o.line("merakid.wal_fsyncs", "count", d["wal.fsyncs"], "")
}

func addGo(lg ledger, g goRuntime) {
	lg["go.gc_cpu_frac"] = g.GCCPUFrac
	lg["go.alloc_mb"] = g.AllocMB
	lg["go.allocs_m"] = g.AllocsM
	lg["go.heap_peak_mb"] = g.HeapPeakMB
}

// emitLedger prints the ledger and puts the per-layer metrics on the
// JSON line.
func emitLedger(o *out, lg ledger) {
	fmt.Println("per-layer ledger:")
	for _, m := range perLayer {
		v, ok := lg[m.name]
		if !ok {
			v = math.NaN() // reported as not measured
		}
		o.emit(m.name, m.unit, v, "")
	}
	var extra []string
	for k := range lg {
		if _, ok := o.res.Metrics[k]; !ok {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		o.line(k, "", lg[k], "")
	}
}

func printMap(o *out, m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		o.line(k, "", m[k], "")
	}
}

// printSelf prints each span name's count, total and self time.
func printSelf(spans []Span) {
	fmt.Println("self time by span (benchmark spans around calls into the program):")
	for _, st := range selfTimes(spans) {
		fmt.Printf("  %-30s n=%-7d total=%-12s self=%s\n", st.Name, st.Count,
			st.Total.Round(time.Microsecond), st.Self.Round(time.Microsecond))
	}
}

func readSpanFile(path string) ([]Span, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spans []Span
	for _, ln := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		if ln == "" {
			continue
		}
		var s Span
		if err := json.Unmarshal([]byte(ln), &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		spans = append(spans, s)
	}
	return spans, nil
}
