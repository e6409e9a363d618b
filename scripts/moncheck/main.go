// Command moncheck is the monitoring-stack smoke gate (`make
// mon-smoke`): it spawns a 2-shard merakid cluster on a fast
// observability cadence (-series-every 100ms, -health-for 2), harvests
// a clean agent fleet, then degrades shard 1 with faultnet-corrupted
// chaos agents and checks the full alert lifecycle from the operator's
// seats:
//
//   - shard 1's harvest-degradation rule must fire while the chaos
//     fleet runs (visible in "alerts", "status", and "watch"),
//   - it must resolve after the chaos stops, with the transition
//     counted in health.fired / health.resolved,
//   - and shard 0's /debug/federate must serve one merged exposition
//     carrying samples from both shards, shard-labeled.
//
// Any missed transition or missing shard fails the build. The
// degradation source is client-side corruption (telemetry.Agent.Dial
// wrapped by faultnet), so the daemons under test are stock binaries.
package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"wlanscale/internal/cluster"
	"wlanscale/internal/faultnet"
	"wlanscale/internal/fleettest"
)

// monFlags puts a shard on the fast observability cadence the gate
// needs to see an alert fire and resolve within seconds.
var monFlags = []string{
	"-timeout", "500ms",
	"-series-every", "100ms", "-series-cap", "256",
	"-health-for", "2", "-health-for-ok", "2",
}

// alertState returns one rule's reported state on a shard ("ok",
// "pending", "firing").
func alertState(query, rule string) (string, error) {
	lines, err := cluster.Query(query, "alerts", nil, 5*time.Second)
	if err != nil {
		return "", err
	}
	for _, ln := range lines {
		fields := strings.Fields(ln)
		if len(fields) >= 3 && fields[0] == rule {
			return fields[2], nil
		}
	}
	return "", fmt.Errorf("rule %q missing from alerts reply %q", rule, lines)
}

// waitForState polls one rule until it reaches want or the deadline
// passes.
func waitForState(query, rule, want string, deadline time.Duration) error {
	var last string
	until := time.Now().Add(deadline)
	for time.Now().Before(until) {
		st, err := alertState(query, rule)
		if err != nil {
			return err
		}
		if st == want {
			return nil
		}
		last = st
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("rule %q never reached %q (last state %q)", rule, want, last)
}

// metricValue reads one scalar from a shard's "metrics" reply.
func metricValue(query, name string) (int64, error) {
	lines, err := cluster.Query(query, "metrics", nil, 5*time.Second)
	if err != nil {
		return 0, err
	}
	for _, ln := range lines {
		n, rest, ok := strings.Cut(ln, " ")
		if ok && n == name {
			v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			return v, err
		}
	}
	return 0, fmt.Errorf("metric %q missing", name)
}

// startChaos launches n agents against one shard's device listener
// whose connections pass through a faultnet wrapper that corrupts
// every I/O op — the daemon sees a stream of MAC failures, never a
// valid session.
func startChaos(listen string, n int, stop chan struct{}) {
	f := fleettest.NewFleet(fleettest.Spec{Networks: 1, APs: n, Reports: 20}, 20)
	for i, a := range f.Agents {
		a.Timeout = 500 * time.Millisecond
		a.BackoffBase = 10 * time.Millisecond
		a.BackoffMax = 50 * time.Millisecond
		plan := faultnet.Plan{
			Seed:        uint64(1000 + i),
			Corrupt:     []faultnet.Window{{From: 0, To: 1 << 30}},
			CorruptProb: 1.0,
		}
		a.Dial = func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return faultnet.WrapConn(c, plan, i), nil
		}
	}
	f.Run(func(uint64) string { return listen }, stop)
}

func run() error {
	bin, err := fleettest.Build("merakid")
	if err != nil {
		return err
	}
	defer os.RemoveAll(filepath.Dir(bin))
	const shards = 2
	c, err := fleettest.Start(fleettest.Config{
		Bin: bin, Daemons: shards, Spare: 1,
		Flags: func(i int, c *fleettest.Cluster) []string {
			fl := append(fleettest.ShardFlags(i, c), monFlags...)
			if i == 0 {
				fl = append(fl, "-debug", c.Spare[0])
			}
			return fl
		},
	})
	if err != nil {
		return err
	}
	defer c.Stop()
	queries := c.Queries()
	debugAddr := c.Spare[0]

	// Phase 1 — healthy baseline: clean agents on both shards (network
	// 100 on shard 0, 101 on shard 1), rules ok.
	stop := make(chan struct{})
	defer close(stop)
	clean := fleettest.NewFleet(fleettest.Spec{Networks: shards, APs: 2, Reports: 20}, 20)
	clean.Run(func(net uint64) string { return c.Daemons[net-100].Listen }, stop)
	if err := clean.Drain(time.Now().Add(30 * time.Second)); err != nil {
		return fmt.Errorf("clean fleet: %v", err)
	}
	for i := 0; i < shards; i++ {
		if st, err := alertState(queries[i], "harvest-degradation"); err != nil || st != "ok" {
			return fmt.Errorf("shard %d harvest-degradation after clean harvest = %q (%v), want ok", i, st, err)
		}
	}

	// Phase 2 — degrade shard 1: chaos agents whose every frame is
	// corrupt. The harvest-degradation rule (error delta over 3 ticks)
	// must fire on shard 1 and stay ok on shard 0.
	chaosStop := make(chan struct{})
	startChaos(c.Daemons[1].Listen, 4, chaosStop)
	if err := waitForState(queries[1], "harvest-degradation", "firing", 30*time.Second); err != nil {
		close(chaosStop)
		return fmt.Errorf("degraded shard: %v", err)
	}
	// The firing alert surfaces on every operator view of shard 1.
	status, err := cluster.Query(queries[1], "status", nil, 5*time.Second)
	if err != nil {
		return err
	}
	if !strings.Contains(strings.Join(status, "\n"), "harvest-degradation") {
		return fmt.Errorf("status does not surface the firing alert: %q", status)
	}
	watch, err := cluster.Query(queries[1], "watch", nil, 5*time.Second)
	if err != nil {
		return err
	}
	if len(watch) != 1 || !strings.Contains(watch[0], "firing=harvest-degradation") {
		return fmt.Errorf("watch line does not surface the firing alert: %q", watch)
	}
	if st, err := alertState(queries[0], "harvest-degradation"); err != nil || st != "ok" {
		return fmt.Errorf("healthy shard 0 harvest-degradation = %q (%v), want ok", st, err)
	}

	// Phase 3 — recovery: stop the chaos, the alert must resolve and the
	// transition must be counted.
	close(chaosStop)
	if err := waitForState(queries[1], "harvest-degradation", "ok", 30*time.Second); err != nil {
		return fmt.Errorf("recovery: %v", err)
	}
	fired, err := metricValue(queries[1], "health.fired")
	if err != nil {
		return err
	}
	resolved, err := metricValue(queries[1], "health.resolved")
	if err != nil {
		return err
	}
	if fired < 1 || resolved < 1 {
		return fmt.Errorf("transition counters fired=%d resolved=%d, want both >= 1", fired, resolved)
	}

	// Phase 4 — federation: shard 0's /debug/federate carries both
	// shards' samples in one exposition.
	resp, err := http.Get("http://" + debugAddr + "/debug/federate")
	if err != nil {
		return fmt.Errorf("federate scrape: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != 200 {
		return fmt.Errorf("federate status %d: %s", resp.StatusCode, body)
	}
	text := string(body)
	for _, want := range []string{
		`store_ingests{shard="0"}`,
		`store_ingests{shard="1"}`,
		`health_fired{shard="1"}`,
		"# federation shards=2 up=2",
	} {
		if !strings.Contains(text, want) {
			return fmt.Errorf("federated exposition missing %q:\n%s", want, text)
		}
	}

	// Phase 5 — the operator dashboard: one merakireport -watch refresh
	// renders a line per shard from the same fleet.
	rep, err := fleettest.Build("merakireport")
	if err != nil {
		return err
	}
	defer os.RemoveAll(filepath.Dir(rep))
	out, err := exec.Command(rep, "-cluster", strings.Join(queries, ","), "-watch", "-watch-count", "1", "-watch-every", "100ms").CombinedOutput()
	if err != nil {
		return fmt.Errorf("merakireport -watch: %v\n%s", err, out)
	}
	for _, want := range []string{"fleet watch", "shard=0/2", "shard=1/2", "up=2"} {
		if !strings.Contains(string(out), want) {
			return fmt.Errorf("watch dashboard missing %q:\n%s", want, out)
		}
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "moncheck: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("moncheck: PASS: alert fired and resolved under induced degradation; federation carried both shards")
}
