package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"syscall"
	"time"

	"wlanscale/internal/core"
	"wlanscale/internal/dot11"
	"wlanscale/internal/epoch"
	"wlanscale/internal/obs"
	"wlanscale/internal/obs/trace"
	"wlanscale/internal/synth"
)

// The epoch workload is merakireport's whole offline surface at the
// default (small) scale and wire v1: NewStudy, both usage epochs over
// RunUsageEpochWorkers at workers = nproc, Tables 1-7 and Figures 1-11,
// in merakireport's order. Each epoch runs in a fresh child process, as
// a user's merakireport run would, so its heap, page faults and VmHWM
// start cold every time.

// epochSetups is how many times a child generates its inputs; its
// set-up time is their median.
const epochSetups = 3

// section is one rendered table or figure, by its merakireport title.
type section struct {
	Name   string `json:"name"`
	SHA256 string `json:"sha256"`
}

// fleetSize identifies a study's inputs: the usage fleets' client and
// AP counts, 2015 and 2014.
type fleetSize struct {
	Clients15 int `json:"clients15"`
	Clients14 int `json:"clients14"`
	APs       int `json:"aps"`
}

// epochChild is what one child run reports to the parent on stdout.
type epochChild struct {
	Size     fleetSize          `json:"size"`
	SetupS   float64            `json:"setup_s"`
	EpochS   float64            `json:"epoch_s"`
	UsageS   []float64          `json:"usage_s"`
	CPUS     float64            `json:"cpu_s"`
	Reports  int                `json:"reports"`
	HWMKB    int64              `json:"hwm_kb"`
	Sections []section          `json:"sections"`
	Layers   map[string]float64 `json:"layers,omitempty"`
	Go       *goRuntime         `json:"go,omitempty"`
}

// studyConfig is merakireport's default configuration for seed.
func studyConfig(seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Workers = runtime.GOMAXPROCS(0)
	cfg.WireVersion = 1
	return cfg
}

// studyInputs generates the fleets NewStudy will build for cfg and
// returns their size: the epoch's set-up, and the check that a seed's
// inputs are the ones its references were recorded from.
func studyInputs(cfg core.Config) (fleetSize, error) {
	var sz fleetSize
	for _, p := range []synth.Params{
		{Seed: cfg.Seed, NumNetworks: cfg.UsageNetworks, Epoch: epoch.Jan2015, ClientCap: cfg.ClientCap},
		{Seed: cfg.Seed, NumNetworks: cfg.UsageNetworks, Epoch: epoch.Jan2014, ClientCap: cfg.ClientCap},
		{Seed: cfg.Seed + 1, NumNetworks: cfg.LinkNetworks, Epoch: epoch.Jan2015, ClientCap: 50},
	} {
		f, err := synth.GenerateFleet(p)
		if err != nil {
			return sz, err
		}
		clients := 0
		for _, n := range f.Networks {
			clients += len(f.Clients(n))
		}
		switch {
		case p.Epoch == epoch.Jan2014:
			sz.Clients14 = clients
		case p.Seed == cfg.Seed:
			sz.Clients15 = clients
			sz.APs = f.TotalAPs()
		}
	}
	return sz, nil
}

// surface runs the merakireport surface for cfg and returns each
// section's render hash, each usage epoch's duration, and the number of
// AP reports the usage epochs harvested. With spans set, every public
// call gets a span under parent.
func surface(cfg core.Config, spans *Spans, parent int64) ([]section, []time.Duration, int, error) {
	var secs []section
	emit := func(name, text string) {
		h := sha256.Sum256([]byte(text))
		secs = append(secs, section{Name: name, SHA256: hex.EncodeToString(h[:])})
	}
	call := func(name string, f func() error) error {
		sp := spans.Start(name, parent)
		defer sp.End()
		return f()
	}
	var study *core.Study
	if err := call("core.NewStudy", func() (err error) {
		study, err = core.NewStudy(cfg)
		return err
	}); err != nil {
		return nil, nil, 0, err
	}
	table := func(name, span string, render func() string) {
		call(span, func() error { emit(name, render()); return nil })
	}
	table("Table 1", "core.Table1Hardware", func() string { return core.Table1Hardware().Render() })
	table("Table 2", "core.Table2Industries", func() string { return core.Table2Industries(study.Fleet15).Render() })

	var now, before *core.UsageEpoch
	var usage []time.Duration
	for _, f := range []*synth.Fleet{study.Fleet15, study.Fleet14} {
		t0 := time.Now()
		var u *core.UsageEpoch
		if err := call("core.RunUsageEpoch", func() (err error) {
			u, err = study.RunUsageEpochWorkers(f, cfg.Workers)
			return err
		}); err != nil {
			return nil, nil, 0, err
		}
		usage = append(usage, time.Since(t0))
		if now == nil {
			now = u
		} else {
			before = u
		}
	}
	reports := study.Fleet15.TotalAPs() + study.Fleet14.TotalAPs()
	table("Table 3", "core.Table3UsageByOS", func() string { return core.Table3UsageByOS(now, before).Render() })
	table("Table 4", "core.Table4Capabilities", func() string { return core.Table4Capabilities(now, before).Render() })
	table("Table 5", "core.Table5TopApps", func() string { return core.Table5TopApps(now, before, 40).Render() })
	table("Table 6", "core.Table6Categories", func() string { return core.Table6Categories(now, before).Render() })
	table("Figure 1", "core.Figure1RSSI", func() string { return core.Figure1RSSI(now).Render() })

	var scanNow, scanBefore *core.NeighborScan
	if err := call("core.RunNeighborScan", func() (err error) {
		if scanNow, err = study.RunNeighborScan(epoch.Jan2015); err != nil {
			return err
		}
		scanBefore, err = study.RunNeighborScan(epoch.Jul2014)
		return err
	}); err != nil {
		return nil, nil, 0, err
	}
	apScale := 10000.0 / float64(len(scanNow.PerAP))
	table("Table 7", "core.Table7NearbyNetworks", func() string {
		return core.Table7NearbyNetworks(scanNow, scanBefore, apScale).Render()
	})
	table("Figure 2", "core.Figure2NearbyByChannel", func() string {
		return core.Figure2NearbyByChannel(scanNow, apScale).Render()
	})
	table("Figure 3", "core.RunFigure3", func() string { return study.RunFigure3().Render() })
	table("Figure 4", "core.RunLinkSeries", func() string { return study.RunLinkSeries(dot11.Band24).Render() })
	table("Figure 5", "core.RunLinkSeries", func() string { return study.RunLinkSeries(dot11.Band5).Render() })

	type renderer interface{ Render() string }
	figs := []struct {
		name, span string
		run        func() (renderer, error)
	}{
		{"Figure 6", "core.RunFigure6", func() (renderer, error) { return study.RunFigure6() }},
		{"Figure 7", "core.RunScatter", func() (renderer, error) { return study.RunScatter(dot11.Band24) }},
		{"Figure 8", "core.RunScatter", func() (renderer, error) { return study.RunScatter(dot11.Band5) }},
		{"Figure 9", "core.RunFigure9", func() (renderer, error) { return study.RunFigure9() }},
		{"Figure 10", "core.RunFigure10", func() (renderer, error) { return study.RunFigure10() }},
		{"Figure 11", "core.RunFigure11", func() (renderer, error) { return study.RunFigure11(4) }},
	}
	for _, fg := range figs {
		if err := call(fg.span, func() error {
			r, err := fg.run()
			if err != nil {
				return err
			}
			emit(fg.name, r.Render())
			return nil
		}); err != nil {
			return nil, nil, 0, err
		}
	}
	return secs, usage, reports, nil
}

// rusageCPU is the calling process's user+system CPU time.
func rusageCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runEpochChild is the child process: set up, run one epoch, print the
// epochChild as JSON. With spanPath set the epoch is traced: Obs and a
// 100% Trace are attached, every public call gets a span, and the spans
// are written to spanPath when the epoch ends.
func runEpochChild(seed uint64, spanPath string) error {
	cfg := studyConfig(seed)
	var res epochChild
	var setups []float64
	for i := 0; i < epochSetups; i++ {
		t0 := time.Now()
		sz, err := studyInputs(cfg)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		res.Size = sz
	}
	res.SetupS = median(setups)

	var spans *Spans
	var gs *goSampler
	if spanPath != "" {
		spans = newSpans()
		cfg.Obs = obs.NewRegistry()
		cfg.Trace = trace.New(trace.NewRecorder(1<<17), seed, 1.0)
		gs = startGoRuntime()
	}
	cpu0 := rusageCPU()
	root := spans.Start("epoch", 0)
	start := time.Now()
	secs, usage, reports, err := surface(cfg, spans, root.ID())
	if err != nil {
		return err
	}
	res.EpochS = time.Since(start).Seconds()
	root.End()
	res.CPUS = (rusageCPU() - cpu0).Seconds()
	res.Sections = secs
	res.Reports = reports
	for _, u := range usage {
		res.UsageS = append(res.UsageS, u.Seconds())
	}
	if spans != nil {
		g := gs.stop()
		res.Go = &g
		res.Layers = epochLayers(spans.All(), cfg)
		if err := writeSpanFile(spanPath, spans.All()); err != nil {
			return err
		}
	}
	st, err := readProcStats(os.Getpid())
	if err != nil {
		return err
	}
	res.HWMKB = st.HWMKB
	return json.NewEncoder(os.Stdout).Encode(res)
}

// epochLayers reads the core layer ledger of a traced epoch from the
// benchmark's spans and the pipeline's own epoch.* histograms and
// trace stages.
func epochLayers(spans []Span, cfg core.Config) map[string]float64 {
	sum := func(names ...string) float64 {
		var d time.Duration
		for _, s := range spans {
			for _, n := range names {
				if s.Name == n {
					d += s.Dur()
				}
			}
		}
		return d.Seconds()
	}
	out := map[string]float64{
		"core.fleet_s": sum("core.NewStudy"),
		"core.scan_s":  sum("core.RunNeighborScan"),
		"core.links_s": sum("core.RunFigure3", "core.RunLinkSeries"),
		"core.util_s":  sum("core.RunFigure6", "core.RunScatter", "core.RunFigure9", "core.RunFigure10"),
		"core.fig11_s": sum("core.RunFigure11"),
		"core.tables_s": sum("core.Table1Hardware", "core.Table2Industries", "core.Table3UsageByOS",
			"core.Table4Capabilities", "core.Table5TopApps", "core.Table6Categories", "core.Figure1RSSI",
			"core.Table7NearbyNetworks", "core.Figure2NearbyByChannel"),
		"core.usage_s": sum("core.RunUsageEpoch"),
	}
	for _, s := range cfg.Obs.Snapshot() {
		if s.Hist == nil {
			continue
		}
		switch s.Name {
		case "epoch.net_sim_us":
			out["core.net_sim_s"] = float64(s.Hist.Sum) / 1e6
			out["core.net_sim_p99_ms"] = float64(histQuantile(s.Hist, 0.99)) / 1e3
			out["core.networks"] = float64(s.Hist.Count)
		case "epoch.merge_us":
			out["core.merge_s"] = float64(s.Hist.Sum) / 1e6
		}
	}
	// The pipeline's five trace stages, summed over every report.
	stages := map[string]time.Duration{}
	for _, ev := range cfg.Trace.Recorder().Events() {
		stages[ev.Stage] += time.Duration(ev.DurUS) * time.Microsecond
	}
	for st, d := range stages {
		out["trace."+st+"_s"] = d.Seconds()
	}
	return out
}

// histQuantile is the bucket bound holding quantile q.
func histQuantile(h *obs.HistogramSnapshot, q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	rank := int64(q*float64(h.Count) + 0.999999)
	var seen int64
	for i, c := range h.Counts {
		seen += c
		if seen >= rank && i < len(h.Bounds) {
			return h.Bounds[i]
		}
	}
	return h.Bounds[len(h.Bounds)-1]
}

// refs are the reference renders recorded from this tree: per study
// seed, the input size and every section's hash.
type refs struct {
	Seeds []uint64            `json:"seeds"`
	Study map[string]studyRef `json:"study"`
}

type studyRef struct {
	Size     fleetSize `json:"size"`
	Sections []section `json:"sections"`
}

func loadRefs(path string) (*refs, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r refs
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Seeds) == 0 {
		return nil, fmt.Errorf("%s: no seeds", path)
	}
	return &r, nil
}

// studySeed maps the workload seed and an epoch's index within the run
// onto the recorded seed pool: a run walks the pool from the seed's
// place, so its median spans several fleets rather than one.
func (r *refs) studySeed(seed uint64, i int) uint64 {
	return r.Seeds[(seed+uint64(i))%uint64(len(r.Seeds))]
}

// verify compares a child's inputs and renders with the references for
// its study seed. A seed without references is unverified, never passed.
func (r *refs) verify(seed uint64, c *epochChild) []string {
	ref, ok := r.Study[fmt.Sprint(seed)]
	if !ok {
		return []string{fmt.Sprintf("study seed %d: no reference renders (unverified)", seed)}
	}
	var fails []string
	if c.Size != ref.Size {
		fails = append(fails, fmt.Sprintf("study seed %d: inputs %+v, references were recorded from %+v", seed, c.Size, ref.Size))
	}
	if len(c.Sections) != len(ref.Sections) {
		return append(fails, fmt.Sprintf("study seed %d: %d sections rendered, %d in references", seed, len(c.Sections), len(ref.Sections)))
	}
	for i, s := range c.Sections {
		if s != ref.Sections[i] {
			fails = append(fails, fmt.Sprintf("study seed %d: %s differs from its reference render", seed, s.Name))
		}
	}
	return fails
}

// spawnEpoch runs one epoch in a child process and decodes its report.
func spawnEpoch(self string, seed uint64, spanPath string) (*epochChild, error) {
	args := []string{"-child-epoch", fmt.Sprint(seed)}
	if spanPath != "" {
		args = append(args, "-child-spans", spanPath)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout = pw
	p, err := startProc(cmd)
	pw.Close()
	if err != nil {
		pr.Close()
		return nil, err
	}
	var c epochChild
	decErr := json.NewDecoder(pr).Decode(&c)
	pr.Close()
	<-p.done
	if p.err != nil {
		return nil, fmt.Errorf("epoch child: %w", p.err)
	}
	if decErr != nil {
		return nil, fmt.Errorf("epoch child output: %w", decErr)
	}
	return &c, nil
}

// recordRefs picks the seed pool and records its reference renders.
// The pool is the first n study seeds whose usage fleets hold within
// sizeBand of the median client count and AP count over the first
// scanSeeds seeds, so a workload seed varies the fleets' contents but
// hardly their size.
func recordRefs(self, path string, n int) error {
	const scanSeeds, sizeBand = 2000, 0.01
	type cand struct {
		seed         uint64
		clients, aps int
	}
	var cands []cand
	var clients, aps []float64
	for s := uint64(1); s <= scanSeeds; s++ {
		cfg := studyConfig(s)
		c := cand{seed: s}
		for _, e := range []epoch.Epoch{epoch.Jan2015, epoch.Jan2014} {
			f, err := synth.GenerateFleet(synth.Params{Seed: s, NumNetworks: cfg.UsageNetworks, Epoch: e, ClientCap: cfg.ClientCap})
			if err != nil {
				return err
			}
			for _, nw := range f.Networks {
				c.clients += nw.NumClients
			}
			c.aps += f.TotalAPs()
		}
		cands = append(cands, c)
		clients = append(clients, float64(c.clients))
		aps = append(aps, float64(c.aps))
	}
	midC, midA := median(clients), median(aps)
	near := func(v int, mid float64) bool { d := float64(v)/mid - 1; return d >= -sizeBand && d <= sizeBand }
	r := refs{Study: map[string]studyRef{}}
	for _, c := range cands {
		if len(r.Seeds) == n {
			break
		}
		if !near(c.clients, midC) || !near(c.aps, midA) {
			continue
		}
		child, err := spawnEpoch(self, c.seed, "")
		if err != nil {
			return err
		}
		r.Seeds = append(r.Seeds, c.seed)
		r.Study[fmt.Sprint(c.seed)] = studyRef{Size: child.Size, Sections: child.Sections}
		fmt.Fprintf(os.Stderr, "recorded study seed %d (%d usage clients, %d reports, epoch %.2fs)\n", c.seed, c.clients, c.aps, child.EpochS)
	}
	if len(r.Seeds) < n {
		return fmt.Errorf("only %d of %d seeds in the size band", len(r.Seeds), n)
	}
	sort.Slice(r.Seeds, func(i, j int) bool { return r.Seeds[i] < r.Seeds[j] })
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
