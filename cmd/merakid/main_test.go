package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wlanscale/internal/cluster"
	"wlanscale/internal/dot11"
	"wlanscale/internal/telemetry"
)

// startQueryServer runs a daemon's query listener on an ephemeral port
// and returns its address.
func startQueryServer(t *testing.T) (*daemon, string) {
	t.Helper()
	d := newDaemon(nil, time.Second, 64, time.Second, 1.0, 1024)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go d.acceptQueries(ln)
	return d, ln.Addr().String()
}

// query sends one command — with payload lines, if any, as absorb
// takes them — and returns the reply lines up to the blank terminator.
func query(t *testing.T, addr, command string, payload ...string) []string {
	t.Helper()
	lines, err := cluster.Query(addr, command, payload, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestQueryUnknownCommand pins the error contract: an unrecognized
// command must answer with an "ERR unknown command" line — not a
// silent close — and the connection must stay usable afterwards.
func TestQueryUnknownCommand(t *testing.T) {
	_, addr := startQueryServer(t)
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := fmt.Fprintf(conn, "bogus-command\nclients\nquit\n"); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(conn)
	if !sc.Scan() {
		t.Fatalf("connection closed without a response: %v", sc.Err())
	}
	if got := sc.Text(); !strings.HasPrefix(got, `ERR unknown command "bogus-command"`) {
		t.Fatalf("unknown command answered %q, want ERR unknown command line", got)
	}
	if !sc.Scan() || sc.Text() != "" {
		t.Fatalf("missing blank terminator after ERR line")
	}
	// The session survives the error: the next command still answers.
	if !sc.Scan() {
		t.Fatalf("connection dead after ERR: %v", sc.Err())
	}
	if got := sc.Text(); got != "0" {
		t.Fatalf("clients after ERR = %q, want \"0\"", got)
	}
}

// TestQueryMetrics checks that one "metrics" round trip returns
// harvest, pool, and store counters together.
func TestQueryMetrics(t *testing.T) {
	d, addr := startQueryServer(t)
	// Give the store something to count.
	d.store.Ingest(&telemetry.Report{
		Serial: "Q2AA-TEST", SeqNo: 1,
		Clients: []telemetry.ClientRecord{{MAC: dot11.MAC{0xac, 1, 2, 3, 4, 5}, Band: dot11.Band5}},
	})
	lines := query(t, addr, "metrics")
	byName := make(map[string]string)
	for _, l := range lines {
		name, rest, ok := strings.Cut(l, " ")
		if !ok {
			t.Fatalf("unparseable metrics line %q", l)
		}
		byName[name] = rest
	}
	for _, want := range []string{
		"harvest.polls", "harvest.reconnects", "harvest.timeouts",
		"pool.devices", "pool.disconnects",
		"store.ingests", "store.clients", "store.save_us",
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("metrics response missing %q", want)
		}
	}
	if byName["store.ingests"] != "1" {
		t.Errorf("store.ingests = %q, want 1", byName["store.ingests"])
	}
	if byName["store.clients"] != "1" {
		t.Errorf("store.clients = %q, want 1", byName["store.clients"])
	}
}

// TestDebugMux drives the -debug HTTP surface: /debug/vars must serve
// the registry as valid JSON and the pprof index must answer.
func TestDebugMux(t *testing.T) {
	d := newDaemon(nil, time.Second, 64, time.Second, 1.0, 1024)
	srv := httptest.NewServer(debugMux(d))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/vars status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/debug/vars content type %q", ct)
	}
	var vars map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["store.ingests"]; !ok {
		t.Fatalf("/debug/vars missing store.ingests; keys: %d", len(vars))
	}

	pp, err := srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer pp.Body.Close()
	if pp.StatusCode != 200 {
		t.Fatalf("/debug/pprof/ status %d", pp.StatusCode)
	}

	// Without a series recorder or cluster peers, the observability
	// endpoints answer 404, not 500 or an empty 200.
	for _, path := range []string{"/debug/series", "/debug/federate"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Errorf("%s without feature status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestDebugSeriesEndpoint drives /debug/series on a daemon with the
// recorder attached: full dump, a ?metric= narrow, and a 404 for an
// unknown metric.
func TestDebugSeriesEndpoint(t *testing.T) {
	d := newDaemon(nil, time.Second, 64, time.Second, 1.0, 1024)
	d.attachSeries(32, 2, 2, true)
	base := time.Unix(1000, 0)
	d.store.Ingest(&telemetry.Report{Serial: "Q2AA-SER", SeqNo: 1})
	d.series.Sample(base)
	d.series.Sample(base.Add(time.Second))

	srv := httptest.NewServer(debugMux(d))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/series?metric=store.ingests&n=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/series status %d", resp.StatusCode)
	}
	var body map[string]struct {
		Kind   string           `json:"kind"`
		Points []map[string]any `json:"points"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("/debug/series is not JSON: %v", err)
	}
	got, ok := body["store.ingests"]
	if !ok {
		t.Fatalf("/debug/series?metric=store.ingests missing series; keys=%d", len(body))
	}
	if len(got.Points) != 2 {
		t.Fatalf("store.ingests points = %d, want 2", len(got.Points))
	}

	bad, err := srv.Client().Get(srv.URL + "/debug/series?metric=no.such.metric")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != 404 {
		t.Fatalf("/debug/series unknown metric status %d, want 404", bad.StatusCode)
	}
}

// TestQuerySeries pins the "series" query protocol: the bare form lists
// recorded metric names, the metric form prints points oldest first,
// and bad arguments answer ERR lines.
func TestQuerySeries(t *testing.T) {
	d, addr := startQueryServer(t)
	d.attachSeries(32, 2, 2, true)
	d.store.Ingest(&telemetry.Report{Serial: "Q2AA-SER", SeqNo: 1})
	base := time.Unix(2000, 0)
	d.series.Sample(base)
	d.series.Sample(base.Add(time.Second))

	names := query(t, addr, "series")
	found := false
	for _, n := range names {
		if n == "store.ingests" {
			found = true
		}
	}
	if !found {
		t.Fatalf("series name list missing store.ingests: %v", names)
	}

	pts := query(t, addr, "series store.ingests 5")
	if len(pts) != 2 {
		t.Fatalf("series store.ingests returned %d lines, want 2: %v", len(pts), pts)
	}
	for _, p := range pts {
		if !strings.HasPrefix(p, "t=") || !strings.Contains(p, " v=") {
			t.Errorf("malformed point line %q", p)
		}
	}

	if got := query(t, addr, "series store.ingests zero"); len(got) != 1 || !strings.HasPrefix(got[0], "ERR bad point count") {
		t.Errorf("bad point count answered %v, want ERR line", got)
	}
	if got := query(t, addr, "series no.such.metric"); len(got) != 1 || !strings.HasPrefix(got[0], "ERR") {
		t.Errorf("unknown metric answered %v, want ERR line", got)
	}
}

// TestQuerySeriesDisabled: without a recorder the series query answers
// an ERR line pointing at the flag, not a panic or silence.
func TestQuerySeriesDisabled(t *testing.T) {
	_, addr := startQueryServer(t)
	got := query(t, addr, "series")
	if len(got) != 1 || !strings.HasPrefix(got[0], "ERR series recording disabled") {
		t.Fatalf("series without recorder answered %v, want ERR disabled line", got)
	}
}

// TestQueryAlertsAndStatus drives the health engine through the query
// surface: "alerts" lists every rule with its state, and "status" gains
// an "alerts firing=" line when the engine is attached.
func TestQueryAlertsAndStatus(t *testing.T) {
	d, addr := startQueryServer(t)
	d.attachSeries(32, 1, 1, true)
	base := time.Unix(3000, 0)
	d.series.Sample(base)
	d.alerts.Eval(base)

	lines := query(t, addr, "alerts")
	if len(lines) == 0 {
		t.Fatal("alerts answered no lines")
	}
	byRule := make(map[string]string)
	for _, l := range lines {
		name, _, _ := strings.Cut(l, " ")
		byRule[name] = l
	}
	for _, want := range []string{"harvest-degradation", "wal-degraded", "dedup-spike", "harvest-silence"} {
		l, ok := byRule[want]
		if !ok {
			t.Errorf("alerts missing default rule %q: %v", want, lines)
			continue
		}
		if !strings.Contains(l, " ok ") {
			t.Errorf("rule %q not ok on a healthy daemon: %q", want, l)
		}
	}

	status := query(t, addr, "status")
	var alertLine string
	for _, l := range status {
		if strings.HasPrefix(l, "alerts firing=") {
			alertLine = l
		}
	}
	if alertLine != "alerts firing=0 -" {
		t.Errorf("status alert line = %q, want \"alerts firing=0 -\"", alertLine)
	}
}

// TestQueryWatch pins the machine-readable watch line merakireport
// -watch fans out: one line, fixed key=value fields.
func TestQueryWatch(t *testing.T) {
	d, addr := startQueryServer(t)
	d.attachSeries(32, 1, 1, true)
	d.store.Ingest(&telemetry.Report{Serial: "Q2AA-W", SeqNo: 1})
	base := time.Unix(4000, 0)
	d.series.Sample(base)
	d.series.Sample(base.Add(2 * time.Second))
	d.alerts.Eval(base.Add(2 * time.Second))

	lines := query(t, addr, "watch")
	if len(lines) != 1 {
		t.Fatalf("watch answered %d lines, want 1: %v", len(lines), lines)
	}
	for _, key := range []string{"shard=", "devices=", "ingested=", "dupes=", "rate=", "wal_p99_us=", "degraded=", "firing="} {
		if !strings.Contains(lines[0], key) {
			t.Errorf("watch line missing %q: %q", key, lines[0])
		}
	}
	if !strings.Contains(lines[0], "ingested=1") {
		t.Errorf("watch line ingested != 1: %q", lines[0])
	}
	if !strings.Contains(lines[0], "firing=-") {
		t.Errorf("watch line firing != -: %q", lines[0])
	}
}

// TestQueryProm: the "prom" query — federation's per-shard payload —
// must serve the Prometheus exposition with TYPE metadata.
func TestQueryProm(t *testing.T) {
	d, addr := startQueryServer(t)
	d.store.Ingest(&telemetry.Report{Serial: "Q2AA-P", SeqNo: 1})
	lines := query(t, addr, "prom")
	var typeLines, samples int
	for _, l := range lines {
		if strings.HasPrefix(l, "# TYPE ") {
			typeLines++
		} else if !strings.HasPrefix(l, "#") {
			samples++
		}
	}
	if typeLines == 0 || samples == 0 {
		t.Fatalf("prom answered %d TYPE lines and %d samples, want both > 0", typeLines, samples)
	}
}
