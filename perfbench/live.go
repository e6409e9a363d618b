package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"wlanscale/internal/backend"
	"wlanscale/internal/cluster"
	"wlanscale/internal/telemetry"
)

const (
	// catchupWindows is the outage length of one catchup cycle, in
	// 5-minute windows of the whole stream (~550 reports each).
	catchupWindows = 24
	// steadyRate is the open-loop offered load: the paper's ~20 k APs
	// at one report per 5 minutes, compressed 30x.
	steadyRate = 2000.0
	// steadyPoll is merakid's idle poll cadence on steady. A poll that
	// finds reports queued is followed at once by the next, so on
	// catchup the cadence never matters and stays at its default.
	steadyPoll = "50ms"
	// steadySetups is how many times steady sets up per run; set-up
	// time is their median, and the last one is measured.
	steadySetups = 3
	// steadyQueryEvery paces the query connection: one whole-store
	// query every two seconds, cycling checkpoint, digest and merged
	// digest, so their lock holds cover well under half the run and a
	// contended host does not tip the daemon into a growing backlog.
	steadyQueryEvery = 2 * time.Second
	// steadyGrace is how long after the timed phase the backlog may
	// take to drain; reports still queued then were not delivered.
	steadyGrace  = 3 * time.Second
	drainTimeout = 60 * time.Second
)

// liveEnv is what a live workload needs from the command line.
type liveEnv struct {
	merakid string // merakid binary built from the tree under test
	dir     string // per-run scratch directory inside the checkout
	seed    uint64
	seconds float64
	nproc   int
}

// cycleDir is a fresh directory for one daemon's WAL and log.
func (e liveEnv) cycleDir(name string) (string, error) {
	d := filepath.Join(e.dir, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// liveResult is one live pass, before it is turned into metrics.
type liveResult struct {
	setupS      []float64
	jobS        []float64
	rateS       []float64
	cpuPerK     []float64
	rssMB       []float64
	ack         []float64
	delivery    []float64
	perRound    []float64
	queueMax    int
	lateMS      []float64
	queries     map[string][]float64
	attempted   int
	failed      int
	fails       []string
	agentCPUPer []float64
	daemon      map[string]float64 // merakid "metrics" snapshot (traced)
	goStats     goRuntime
	store       *backend.Store // reference store, for the layer ledger
	batch       float64        // observed reports per poll round
}

func (r *liveResult) fail(format string, args ...any) {
	r.fails = append(r.fails, fmt.Sprintf(format, args...))
}

// catchupCycle is one outage and reconnect: catchupWindows windows of
// the stream queue up in nproc agents while merakid is away, then the
// agents connect to a fresh merakid, which drains them as fast as it
// can. The drain is timed from the connect to the last ack.
func catchupCycle(e liveEnv, n int, spans *Spans, res *liveResult, want *string) error {
	t0 := time.Now()
	s, err := newStream(e.seed)
	if err != nil {
		return err
	}
	dir, err := e.cycleDir(fmt.Sprintf("catchup-%d", n))
	if err != nil {
		return err
	}
	d, retried, err := startMerakid(e.merakid, dir, nil)
	if err != nil {
		return err
	}
	defer d.kill()
	agents := make([]*harvestAgent, e.nproc)
	for i := range agents {
		agents[i] = newHarvestAgent(i, spans)
	}
	for w := 0; w < catchupWindows; w++ {
		for i := range s.aps {
			agents[agentOf(i, len(agents))].enqueue(s.report(w, i), time.Time{})
		}
	}
	total := catchupWindows * len(s.aps)
	res.setupS = append(res.setupS, (time.Since(t0) - retried).Seconds())
	res.attempted += total
	qmax := 0
	for _, h := range agents {
		qmax = max(qmax, h.agent.QueueLen())
	}
	res.queueMax = max(res.queueMax, qmax)

	before, err := d.stats()
	if err != nil {
		return err
	}
	agentCPU0 := selfCPU()
	start := time.Now()
	for _, h := range agents {
		if err := h.connect(d.Listen); err != nil {
			return err
		}
	}
	drained := waitDrained(agents, time.Now().Add(drainTimeout))
	after, err := d.stats()
	if err != nil {
		return err
	}
	agentCPU := selfCPU() - agentCPU0
	for _, h := range agents {
		h.stop()
	}
	rs := collectRounds(agents, spans)
	acked := 0
	for _, h := range agents {
		acked += h.acked()
		// Every report was due at the reconnect: delivery is the time
		// the backlog kept it waiting once the tunnel was back.
		due := make([]time.Time, h.enq)
		for i := range due {
			due[i] = start
		}
		dl, _ := attribute(due, acks(h.conn.Rounds(h.acked())))
		for _, x := range dl {
			res.delivery = append(res.delivery, ms(x))
		}
	}
	if !drained {
		res.fail("catchup cycle %d: %d of %d reports acked within %s", n, acked, total, drainTimeout)
	}
	res.failed += total - acked
	drain := rs.lastAck.Sub(start)
	res.jobS = append(res.jobS, drain.Seconds())
	res.rateS = append(res.rateS, float64(acked)/drain.Seconds())
	res.cpuPerK = append(res.cpuPerK, ms(after.CPU-before.CPU)/float64(acked)*1000)
	res.agentCPUPer = append(res.agentCPUPer, ms(agentCPU)/float64(acked)*1000)
	res.rssMB = append(res.rssMB, float64(after.HWMKB)/1024)
	res.ack = append(res.ack, rs.ackMS...)
	res.perRound = append(res.perRound, rs.perRound...)

	if *want == "" {
		res.store, *want = referenceDigest(agents)
	}
	if spans != nil {
		res.daemon = daemonMetrics(d)
	}
	for _, f := range checkHarvest(d, agents, *want) {
		res.fail("catchup cycle %d: %s", n, f)
		res.failed++
	}
	return nil
}

// runCatchup repeats catchup cycles until the run's time is used and,
// unless traced, enough poll rounds are in for an ack p99.
func runCatchup(e liveEnv, spans *Spans) (*liveResult, error) {
	res := &liveResult{}
	var want string
	begin := time.Now()
	gs := startGoRuntime()
	more := func() bool {
		if spans != nil {
			return false
		}
		return time.Since(begin).Seconds() < e.seconds || len(res.ack) < 100*minBeyond
	}
	for n := 0; n == 0 || more(); n++ {
		if err := catchupCycle(e, n, spans, res, &want); err != nil {
			return nil, err
		}
	}
	res.goStats = gs.stop()
	res.batch = median(res.perRound)
	return res, nil
}

// steadyDaemon is a set-up steady environment: merakid with the first
// window preloaded, agents connected, and the rest of the stream built.
type steadyDaemon struct {
	d      *merakid
	agents []*harvestAgent
	s      *stream
	queue  []*telemetry.Report // the open-loop stream, in send order
}

func (sd *steadyDaemon) close() {
	for _, h := range sd.agents {
		h.stop()
	}
	sd.d.kill()
}

// setupSteady builds the stream, boots merakid and drains one full
// window into it through nproc-1 agents. It returns the time lost to
// merakid starts retried after a port race.
func setupSteady(e liveEnv, n int, spans *Spans) (*steadyDaemon, time.Duration, error) {
	s, err := newStream(e.seed)
	if err != nil {
		return nil, 0, err
	}
	windows := int(e.seconds*steadyRate)/len(s.aps) + 2
	queue := make([]*telemetry.Report, 0, windows*len(s.aps))
	for w := 1; w <= windows; w++ {
		queue = append(queue, s.window(w)...)
	}
	dir, err := e.cycleDir(fmt.Sprintf("steady-%d", n))
	if err != nil {
		return nil, 0, err
	}
	d, retried, err := startMerakid(e.merakid, dir, []string{"-poll", steadyPoll})
	if err != nil {
		return nil, 0, err
	}
	sd := &steadyDaemon{d: d, s: s, queue: queue}
	sd.agents = make([]*harvestAgent, max(1, e.nproc-1))
	for i := range sd.agents {
		sd.agents[i] = newHarvestAgent(i, spans)
	}
	now := time.Now()
	for i, r := range s.window(0) {
		sd.agents[agentOf(i, len(sd.agents))].enqueue(r, now)
	}
	for _, h := range sd.agents {
		if err := h.connect(d.Listen); err != nil {
			sd.close()
			return nil, 0, err
		}
	}
	if !waitDrained(sd.agents, time.Now().Add(drainTimeout)) {
		sd.close()
		return nil, 0, fmt.Errorf("steady: preload window not drained within %s", drainTimeout)
	}
	return sd, retried, nil
}

// runSteady sets up steadySetups times (reporting the median set-up
// time), then replays the stream open-loop at steadyRate for the run's
// seconds on the last set-up while one query connection cycles through
// checkpoint, digest and the cluster router's merged digest.
func runSteady(e liveEnv, spans *Spans) (*liveResult, error) {
	res := &liveResult{queries: map[string][]float64{}}
	var sd *steadyDaemon
	for n := 0; n < steadySetups; n++ {
		if sd != nil {
			sd.close()
		}
		t0 := time.Now()
		var err error
		var retried time.Duration
		if sd, retried, err = setupSteady(e, n, spans); err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, (time.Since(t0) - retried).Seconds())
	}
	defer sd.close()
	preload := len(sd.s.aps)
	nAPs := len(sd.s.aps)

	before, err := sd.d.stats()
	if err != nil {
		return nil, err
	}
	gs := startGoRuntime()
	agentCPU0 := selfCPU()
	sched := schedule{start: time.Now().Add(20 * time.Millisecond), rate: steadyRate}
	end := sched.start.Add(time.Duration(e.seconds * float64(time.Second)))
	genDone := make(chan int)
	go func() {
		k := 0
		for ; k < len(sd.queue); k++ {
			due := sched.due(k)
			if !due.Before(end) {
				break
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			// k-th report of the stream; its AP is k mod nAPs (the
			// preload window took AP order too).
			h := sd.agents[agentOf(k%nAPs, len(sd.agents))]
			h.enqueue(sd.queue[k], due)
			res.lateMS = append(res.lateMS, ms(sched.late(k, time.Now())))
			for _, a := range sd.agents {
				res.queueMax = max(res.queueMax, a.agent.QueueLen())
			}
		}
		genDone <- k
	}()
	router := &cluster.Router{Shards: []string{sd.d.Query}, Timeout: time.Minute, Retries: -1}
	ops := []string{"checkpoint", "digest", "merged_digest"}
	for k := 0; ; k++ {
		// At least one full cycle, however short the run.
		due := sched.start.Add(time.Duration(k) * steadyQueryEvery)
		if k >= len(ops) && !due.Before(end) {
			break
		}
		time.Sleep(time.Until(due))
		q := ops[k%len(ops)]
		q0 := time.Now()
		var err error
		if q == "merged_digest" {
			var dig cluster.Digest
			dig, err = router.MergedDigest()
			if err == nil && dig.Degraded {
				err = fmt.Errorf("merged digest degraded: down %v", dig.Down)
			}
		} else {
			_, err = queryOK(sd.d.Query, q, time.Minute)
		}
		res.attempted++
		if err != nil {
			res.failed++
			res.fail("steady query %s: %v", q, err)
			continue
		}
		res.queries[q] = append(res.queries[q], ms(time.Since(q0)))
	}
	time.Sleep(time.Until(end))
	sent := <-genDone
	after, err := sd.d.stats()
	if err != nil {
		return nil, err
	}
	agentCPU := selfCPU() - agentCPU0
	res.goStats = gs.stop()
	if !waitDrained(sd.agents, end.Add(steadyGrace)) {
		queued := 0
		for _, h := range sd.agents {
			queued += h.enq - h.acked()
		}
		res.failed += queued
		res.fail("steady: %d reports still queued %s after the run (backlog grew)", queued, steadyGrace)
	}
	drained := waitDrained(sd.agents, time.Now().Add(drainTimeout))
	final, err := sd.d.stats()
	if err != nil {
		return nil, err
	}
	res.attempted += sent
	acked := 0
	for _, h := range sd.agents {
		rounds, counts := h.conn.Rounds(h.acked())
		// The preload window's reports were acked in set-up; the timed
		// stream starts after them in each agent's FIFO.
		skip := 0
		for _, d := range h.due {
			if d.Before(sched.start) {
				skip++
			}
		}
		as := acks(rounds, counts)
		var timedAcks []ack
		for _, a := range as {
			if a.Acked > skip {
				timedAcks = append(timedAcks, ack{At: a.At, Acked: a.Acked - skip})
			}
		}
		dl, _ := attribute(h.due[skip:], timedAcks)
		for _, x := range dl {
			res.delivery = append(res.delivery, ms(x))
		}
		acked += len(dl)
	}
	if !drained {
		res.fail("steady: backlog of %d reports not drained within %s after the run", sent-acked, drainTimeout)
	}
	rs := collectRounds(sd.agents, spans)
	res.ack = rs.ackMS
	res.perRound = rs.perRound
	res.batch = median(rs.perRound)
	// One read cycle: a checkpoint, a digest and a merged digest, each
	// at its median.
	res.jobS = []float64{(median(res.queries["checkpoint"]) + median(res.queries["digest"]) +
		median(res.queries["merged_digest"])) / 1e3}
	res.rateS = []float64{float64(ackedBy(sd.agents, preload, end)) / end.Sub(sched.start).Seconds()}
	res.cpuPerK = []float64{ms(after.CPU-before.CPU) / float64(acked) * 1000}
	res.agentCPUPer = []float64{ms(agentCPU) / float64(acked) * 1000}
	res.rssMB = []float64{float64(final.HWMKB) / 1024}
	if spans != nil {
		res.daemon = daemonMetrics(sd.d)
	}
	var want string
	res.store, want = referenceDigest(sd.agents)
	for _, f := range checkHarvest(sd.d, sd.agents, want) {
		res.fail("steady: %s", f)
		res.failed++
	}
	return res, nil
}

// ackedBy counts the timed-phase reports acked no later than end.
func ackedBy(agents []*harvestAgent, preload int, end time.Time) int {
	n := 0
	for _, h := range agents {
		rounds, counts := h.conn.Rounds(h.acked())
		best := 0
		for i, r := range rounds {
			if !r.AckAt.After(end) {
				best = max(best, r.Before+counts[i])
			}
		}
		n += best
	}
	return n - preload
}

// daemonMetrics reads merakid's "metrics" query into name → value; a
// histogram line contributes name.p50 and name.p99 (bucket bounds).
func daemonMetrics(d *merakid) map[string]float64 {
	lines, err := queryOK(d.Query, "metrics", time.Minute)
	if err != nil {
		return nil
	}
	out := map[string]float64{}
	for _, ln := range lines {
		f := strings.Fields(ln)
		if len(f) == 2 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
			continue
		}
		for _, kv := range f[1:] {
			if k, v, ok := strings.Cut(kv, "="); ok && (k == "p50" || k == "p99" || k == "count") {
				if x, err := strconv.ParseFloat(v, 64); err == nil {
					out[f[0]+"."+k] = x
				}
			}
		}
	}
	return out
}

// selfCPU is the benchmark process's CPU time so far: the agents' and
// load generator's cost.
func selfCPU() time.Duration {
	st, err := readProcStats(os.Getpid())
	if err != nil {
		return 0
	}
	return st.CPU
}
